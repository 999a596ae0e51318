//! The store every workload opens: WAL group-commit durability over a
//! `BlockCache<FileDisk>`, optionally with timing wrappers above and
//! below the cache and around the tuner.

use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruskey::db::RusKeyConfig;
use ruskey::sharded::{DurabilityConfig, ShardedRusKey};
use ruskey::tuner::Tuner;
use ruskey_lsm::TreeStatsSnapshot;
use ruskey_storage::{BlockCache, CostModel, FileDisk, Storage};
use ruskey_workload::encode_key;

use crate::trace::{Layer, Timed, TimedTuner};

pub const PAGE: usize = 4096;
pub const KEY_LEN: usize = 16;
pub const VALUE_LEN: usize = 112;
/// Distinct values the workloads write; a value is named by its index.
pub const POOL: usize = 4096;

/// `POOL` random values drawn from the seed. Every write and every
/// bulk-loaded entry shares one of these buffers, so expected values are
/// indices, not copies.
pub fn value_pool(seed: u64) -> Vec<Bytes> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C_E5ED);
    (0..POOL)
        .map(|_| {
            let mut v = vec![0u8; VALUE_LEN];
            rng.fill(v.as_mut_slice());
            Bytes::from(v)
        })
        .collect()
}

/// The pool index bulk-loaded under key `id`.
pub fn initial_value(seed: u64, id: u64) -> u16 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % POOL as u64) as u16
}

/// Estimated data pages for `keys` entries (payload only).
pub fn data_pages(keys: u64) -> usize {
    (keys as usize * (KEY_LEN + VALUE_LEN)).div_ceil(PAGE)
}

/// Cache hit/miss/eviction totals, read through the concrete cache.
pub type CacheCounts = Box<dyn Fn() -> (u64, u64, u64) + Send>;

/// An open store plus handles on the layers under it.
pub struct Stack {
    pub store: ShardedRusKey,
    pub disk: Arc<FileDisk>,
    pub cache_counts: CacheCounts,
}

/// What to open.
pub struct StackSpec {
    pub cfg: RusKeyConfig,
    pub shards: usize,
    pub cache_pages: usize,
    pub traced: bool,
}

/// Opens a fresh store under `dir` (wiped first).
pub fn open(dir: &Path, spec: StackSpec, tuner: Box<dyn Tuner>) -> Result<Stack, String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("wipe {}: {e}", dir.display())),
    }
    let disk = FileDisk::new(dir.join("data"), PAGE, CostModel::NVME)
        .map_err(|e| format!("open data dir: {e}"))?;
    let (storage, cache_counts): (Arc<dyn Storage>, CacheCounts) = if spec.traced {
        let cache = BlockCache::new(
            Timed::new(Arc::clone(&disk), Layer::Device),
            spec.cache_pages,
        );
        let c = Arc::clone(&cache);
        (
            Timed::new(cache, Layer::Cache),
            Box::new(move || (c.hits(), c.misses(), c.evictions())),
        )
    } else {
        let cache = BlockCache::new(Arc::clone(&disk), spec.cache_pages);
        let c = Arc::clone(&cache);
        (
            cache,
            Box::new(move || (c.hits(), c.misses(), c.evictions())),
        )
    };
    let tuner: Box<dyn Tuner> = if spec.traced {
        Box::new(TimedTuner(tuner))
    } else {
        tuner
    };
    let store = ShardedRusKey::try_with_tuner_durable(
        spec.cfg,
        spec.shards,
        storage,
        tuner,
        &DurabilityConfig::group_commit(dir.join("wal")),
    )
    .map_err(|e| format!("open store: {e}"))?;
    Ok(Stack {
        store,
        disk,
        cache_counts,
    })
}

/// Bulk-loads keys `0..keys` with their initial values.
pub fn bulk_load(store: &mut ShardedRusKey, keys: u64, seed: u64, pool: &[Bytes]) {
    let pairs = (0..keys)
        .map(|id| {
            (
                encode_key(id, KEY_LEN),
                pool[initial_value(seed, id) as usize].clone(),
            )
        })
        .collect();
    store.bulk_load(pairs);
}

/// Sweeps keys `0..keys` with ad-hoc scans and counts entries that differ
/// from `expected` (missing, extra, out of order, or wrong value).
pub fn sweep(store: &mut ShardedRusKey, keys: u64, expected: impl Fn(u64) -> Option<Bytes>) -> u64 {
    const CHUNK: u64 = 8192;
    let mut wrong = 0u64;
    let mut lo = 0u64;
    while lo < keys {
        let hi = (lo + CHUNK).min(keys);
        let rows = store.scan(
            &encode_key(lo, KEY_LEN),
            &encode_key(hi, KEY_LEN),
            (hi - lo) as usize + 1,
        );
        let want: Vec<(u64, Bytes)> = (lo..hi)
            .filter_map(|id| expected(id).map(|v| (id, v)))
            .collect();
        if rows.len() != want.len() {
            wrong += rows.len().abs_diff(want.len()) as u64;
        }
        for ((k, v), (id, w)) in rows.iter().zip(&want) {
            if *k != encode_key(*id, KEY_LEN) || v != w {
                wrong += 1;
            }
        }
        lo = hi;
    }
    wrong
}

/// Public counters taken at one instant, for window deltas.
pub struct Counters {
    pub tree: TreeStatsSnapshot,
    pub device_bytes_written: u64,
    /// Block-cache hits, misses and evictions.
    pub cache: (u64, u64, u64),
    /// This process's CPU time, in clock ticks of 1/100 s.
    pub cpu_ticks: u64,
    /// The host's steal and total CPU ticks.
    pub host_ticks: (u64, u64),
}

/// What the counters recorded over one window, or over several summed.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Tree-statistics delta.
    pub tree: TreeStatsSnapshot,
    /// Tree state at the window's end (levels, pending compaction).
    pub end: TreeStatsSnapshot,
    pub device_bytes_written: u64,
    pub cache: (u64, u64, u64),
    pub cpu_ticks: u64,
    pub host_ticks: (u64, u64),
}

impl Counters {
    /// The window from `before` to these counters.
    pub fn since(&self, before: &Counters) -> Window {
        let (c, b) = (self.cache, before.cache);
        Window {
            tree: self.tree.delta(&before.tree),
            end: self.tree.clone(),
            device_bytes_written: self.device_bytes_written - before.device_bytes_written,
            cache: (c.0 - b.0, c.1 - b.1, c.2 - b.2),
            cpu_ticks: self.cpu_ticks - before.cpu_ticks,
            host_ticks: (
                self.host_ticks.0 - before.host_ticks.0,
                self.host_ticks.1 - before.host_ticks.1,
            ),
        }
    }
}

impl Window {
    /// Adds another window's work to this one.
    pub fn absorb(&mut self, w: &Window) {
        self.tree = self.tree.merge(&w.tree);
        self.end = self.end.merge(&w.end);
        self.device_bytes_written += w.device_bytes_written;
        self.cache = (
            self.cache.0 + w.cache.0,
            self.cache.1 + w.cache.1,
            self.cache.2 + w.cache.2,
        );
        self.cpu_ticks += w.cpu_ticks;
        self.host_ticks = (
            self.host_ticks.0 + w.host_ticks.0,
            self.host_ticks.1 + w.host_ticks.1,
        );
    }

    /// CPU time this process used per operation, in microseconds.
    pub fn cpu_us_per_op(&self, ops: u64) -> f64 {
        self.cpu_ticks as f64 * 10_000.0 / ops.max(1) as f64
    }

    /// Share (%) of the host's CPU time stolen by the hypervisor.
    pub fn steal_pct(&self) -> f64 {
        let (steal, all) = self.host_ticks;
        if all == 0 {
            0.0
        } else {
            100.0 * steal as f64 / all as f64
        }
    }
}

impl Stack {
    pub fn counters(&self) -> Counters {
        Counters {
            tree: self.store.stats(),
            device_bytes_written: self.disk.metrics().bytes_written,
            cache: (self.cache_counts)(),
            cpu_ticks: process_cpu_ticks(),
            host_ticks: host_ticks(),
        }
    }

    /// Live device bytes.
    pub fn live_bytes(&self) -> u64 {
        self.disk.live_pages() * PAGE as u64
    }
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// User plus system CPU ticks of this process (all threads, exited ones
/// included) from `/proc/self/stat`; 0 where the file is absent.
fn process_cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse::<u64>().ok())
        .sum()
}

/// The host's (steal, total) CPU ticks from the first line of
/// `/proc/stat`; zeros where the file is absent.
fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    if f.len() == 8 {
        (f[7], f.iter().sum())
    } else {
        (0, 0)
    }
}
