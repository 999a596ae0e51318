//! One run's numbers, and the per-layer figures drawn from public
//! counters and the span buffer.

use ruskey::frontend::MetricsSnapshot;

use crate::pct::{Sample, Timings};
use crate::stack::Window;
use crate::trace::{Kind, Span};

/// One named figure. `n` is the sample count behind a timing; `refused`
/// marks a percentile the sample was too small to support (reported as 0).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
    pub refused: bool,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with the shadow model.
    pub wrong: u64,
    /// Deterministic counts a traced and an untraced run must agree on.
    pub fingerprint: String,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n: None,
            refused: false,
        });
    }

    /// A percentile `q` of `s` divided by `div` (ns → unit), under the
    /// percentile rule.
    pub fn pct(&mut self, name: &str, s: &impl Timings, q: f64, div: f64, unit: &'static str) {
        let p = s.pct(q);
        self.metrics.push(Metric {
            name: name.into(),
            value: p.map_or(0.0, |v| v as f64 / div),
            unit,
            n: Some(s.n()),
            refused: p.is_none() && s.n() > 0,
        });
    }

    /// The mean of `s` divided by `div`.
    pub fn mean(&mut self, name: &str, s: &impl Timings, div: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: s.mean() / div,
            unit,
            n: Some(s.n()),
            refused: false,
        });
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{},\"refused\":{}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    m.n.map_or("null".into(), |n| n.to_string()),
                    m.refused
                )
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| format!("{n:?}")).collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"wrong\":{},\"fingerprint\":{:?},\"notes\":[{}],\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            self.wrong,
            self.fingerprint,
            notes.join(","),
            metrics.join(",")
        )
    }
}

/// A JSON number (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `lsm.*` from tree-statistics deltas over the window, plus the
/// fingerprint of those counts.
pub fn lsm(r: &mut Report, w: &Window) {
    let d = &w.tree;
    let sum =
        |f: fn(&ruskey_lsm::LevelStatsSnapshot) -> u64| -> u64 { d.levels.iter().map(f).sum() };
    let probes = sum(|l| l.probes);
    let counts = [
        ("lsm.flushes", d.flushes),
        ("lsm.merges", sum(|l| l.merges_down)),
        ("lsm.bg_steps", d.bg_compactions),
        ("lsm.compact_pages_read", sum(|l| l.compact_pages_read)),
        (
            "lsm.compact_pages_written",
            sum(|l| l.compact_pages_written),
        ),
        ("lsm.transitions", sum(|l| l.transitions)),
        ("lsm.wal_syncs", d.wal_syncs),
        ("lsm.levels", w.end.levels.len() as u64),
    ];
    r.put(
        "lsm.probes_per_get",
        ratio(probes as f64, d.lookups as f64),
        "count",
    );
    r.put(
        "lsm.false_positive_rate",
        ratio(sum(|l| l.false_positives) as f64, probes as f64),
        "ratio",
    );
    for (name, v) in counts {
        r.put(name, v as f64, "count");
    }
    r.put(
        "lsm.writes_per_sync",
        ratio(d.wal_appends as f64, d.wal_syncs as f64),
        "count",
    );
    r.put(
        "lsm.pending_compaction_kb",
        w.end.pending_compaction_bytes as f64 / 1024.0,
        "KiB",
    );
    let fp: Vec<String> = counts
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .chain([
            format!("probes={probes}"),
            format!("lookups={}", d.lookups),
            format!("busy_ns={}", d.busy_ns),
            format!("wal_appends={}", d.wal_appends),
        ])
        .collect();
    r.fingerprint.push_str(&fp.join(" "));
}

/// `cache.*` and `device.*` from the span buffer and public counters.
pub fn storage(r: &mut Report, spans: &[Option<Span>], w: &Window) {
    let durs = |k: Kind| {
        Sample::new(
            spans
                .iter()
                .flatten()
                .filter(|s| s.kind == k)
                .map(|s| s.dur_ns)
                .collect(),
        )
    };
    let cache_reads = durs(Kind::CacheRead);
    // Device reads nested in a cache read: the part of the cache span
    // spent below the cache.
    let below: u64 = spans
        .iter()
        .flatten()
        .filter(|s| s.kind == Kind::DeviceRead)
        .filter(|s| {
            s.parent
                .and_then(|p| spans.get(p as usize).copied().flatten())
                .is_some_and(|p| p.kind == Kind::CacheRead)
        })
        .map(|s| s.dur_ns)
        .sum();
    let (hits, misses, evictions) = w.cache;
    r.put("cache.reads", cache_reads.n() as f64, "count");
    r.put(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    r.put("cache.evictions", evictions as f64, "count");
    r.mean("cache.read_ns_mean", &cache_reads, 1.0, "ns");
    r.pct("cache.read_ns_p99", &cache_reads, 0.99, 1.0, "ns");
    r.put(
        "cache.self_ns_per_read",
        ratio(
            cache_reads.sum().saturating_sub(below) as f64,
            cache_reads.n() as f64,
        ),
        "ns",
    );

    let reads = durs(Kind::DeviceRead);
    let writes = durs(Kind::DeviceWrite);
    let syncs = durs(Kind::DeviceSync);
    r.put("device.reads", reads.n() as f64, "count");
    r.mean("device.read_ns_mean", &reads, 1.0, "ns");
    r.pct("device.read_ns_p99", &reads, 0.99, 1.0, "ns");
    r.put("device.writes", writes.n() as f64, "count");
    r.mean("device.write_ns_mean", &writes, 1.0, "ns");
    r.put(
        "device.bytes_written",
        w.device_bytes_written as f64,
        "bytes",
    );
    r.put("device.syncs", syncs.n() as f64, "count");
    r.put("device.sync_us", syncs.sum() as f64 / 1e3, "us");
}

/// Total duration of the outermost storage spans (the cache-layer ones,
/// which contain the device spans below them).
pub fn storage_ns(spans: &[Option<Span>]) -> u64 {
    spans
        .iter()
        .flatten()
        .filter(|s| s.kind.is_cache() && s.parent.is_none())
        .map(|s| s.dur_ns)
        .sum()
}

/// `frontend.*` from the serving session's metrics snapshot; all zero
/// for a workload that never opens the frontend.
pub fn frontend(r: &mut Report, m: Option<&MetricsSnapshot>, above_storage_us: f64) {
    let d = MetricsSnapshot::default();
    let m = m.unwrap_or(&d);
    r.put("frontend.writes_per_commit", m.mean_batch_writes(), "count");
    r.put("frontend.queue_stalls", m.stalls as f64, "count");
    r.put("frontend.queue_stall_us", m.stall_ns as f64 / 1e3, "us");
    r.put("frontend.shard_imbalance", m.shard_imbalance(), "ratio");
    r.put("frontend.rejections", m.rejections as f64, "count");
    r.put("frontend.above_storage_us_per_op", above_storage_us, "us");
}

/// Mission spans with the tune spans nested in them and the outermost
/// storage spans that ran (on the shard worker) inside their interval.
/// The calling thread is blocked for the whole mission, so time containment
/// attributes worker spans exactly.
pub fn mission_self_ns(spans: &[Option<Span>]) -> Vec<u64> {
    let mut missions: Vec<(usize, Span)> = spans
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.filter(|s| s.kind == Kind::Mission).map(|s| (i, s)))
        .collect();
    missions.sort_by_key(|(_, s)| s.start_ns);
    let mut storage: Vec<Span> = spans
        .iter()
        .flatten()
        .filter(|s| s.kind.is_cache() && s.parent.is_none())
        .copied()
        .collect();
    storage.sort_by_key(|s| s.start_ns);
    let mut tune = vec![0u64; spans.len()];
    for s in spans.iter().flatten().filter(|s| s.kind == Kind::Tune) {
        if let Some(p) = s.parent {
            tune[p as usize] += s.dur_ns;
        }
    }
    let mut j = 0;
    missions
        .iter()
        .map(|(i, m)| {
            let end = m.start_ns + m.dur_ns;
            while j < storage.len() && storage[j].start_ns < m.start_ns {
                j += 1;
            }
            let mut inside = 0;
            while j < storage.len() && storage[j].start_ns < end {
                inside += storage[j].dur_ns;
                j += 1;
            }
            m.dur_ns.saturating_sub(tune[*i] + inside)
        })
        .collect()
}

/// `client.mission_*`: `run_mission` wall time as its caller sees it.
pub fn missions(r: &mut Report, missions: &Sample) {
    r.pct("client.mission_ms_p50", missions, 0.5, 1e6, "ms");
    r.pct("client.mission_ms_p95", missions, 0.95, 1e6, "ms");
}

/// `sharded.*`: mission time outside the tuner and storage.
pub fn sharded(r: &mut Report, mission_self: &Sample) {
    r.pct("sharded.mission_self_ms_p50", mission_self, 0.5, 1e6, "ms");
}

/// `tuner.*`: `tune` spans plus counts observed around the missions.
pub fn tuner(
    r: &mut Report,
    tune: &Sample,
    busy_share: f64,
    model_update_ms: f64,
    unconverged: u64,
    policy_changes: u64,
) {
    r.pct("tuner.tune_ms_p50", tune, 0.5, 1e6, "ms");
    r.pct("tuner.tune_ms_p95", tune, 0.95, 1e6, "ms");
    r.put("tuner.busy_share", busy_share, "ratio");
    r.put("tuner.model_update_ms", model_update_ms, "ms");
    r.put("tuner.unconverged_missions", unconverged as f64, "count");
    r.put("tuner.policy_changes", policy_changes as f64, "count");
}
