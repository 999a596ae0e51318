//! The store: hash-partitioned FLSM shards behind one engine.
//!
//! [`ShardedRusKey`] is the paper's store — FLSM-tree, tuner and
//! statistics collector (§3) — and the paper's single-tree store is its
//! `N = 1` case: every figure and table runs on a one-shard store. At
//! larger `N` keys are hash-partitioned onto independent
//! [`FlsmTree`] shards (each with its own memtable and levels) that share
//! one storage device, and missions execute in parallel on a **persistent
//! worker pool** — one long-lived OS thread per shard, spawned once at
//! construction and reused for every mission, with operations routed by
//! the stable key hash of [`ruskey_workload::routing`]. Cross-shard range
//! scans are k-way merged back into one sorted result.
//!
//! Tuning runs under a [`TunerStrategy`]. **Global** (the default, the
//! paper's single-tree loop): per-shard [`TreeStatsSnapshot`]s merge
//! into one store-wide view, a single [`Tuner`] (Lerp or a baseline)
//! observes the aggregated [`MissionReport`]/[`TreeObservation`], and
//! its policy changes fan out to every shard. **Per-shard**
//! ([`ShardedRusKey::try_with_per_shard_lerp`]): every shard owns its
//! own tuner, fed by that shard's *own* reward slice (its time-domain
//! delta, not an ops-weighted average that lets idle siblings mask a
//! saturated shard) and its own observation, with policy changes
//! applied only to the owning shard — so under skew each shard's tree
//! converges to *its* workload. At `N = 1` the two strategies are
//! bit-identical (`tests/tuning_equivalence.rs` pins it), and a
//! one-shard store's mission counters equal those of a bare
//! [`FlsmTree`] driven through the paper's mission loop
//! (`tests/sharded_equivalence.rs` pins it).
//!
//! Orthogonally, [`ShardedRusKey::enable_balancing`] arms **hot-shard
//! mitigation**: a decayed [`LoadSketch`] (per-shard op counters + a
//! Misra–Gries heavy-hitter summary) watches the point-op stream, and
//! when one shard's load exceeds the configured imbalance threshold the
//! store *re-homes* its heaviest keys to the coldest shard through a
//! [`RoutingTable`] consulted by every point-op path (missions, ad-hoc
//! ops, the serving frontend). Migration is crash-safe on a durable
//! store: the routes file is written atomically *before* any data
//! moves, each key is copied to its new home and group-committed before
//! the original is tombstoned, and recovery settles half-finished moves
//! from the routes file (all three crash states are idempotent).
//!
//! ## The worker pool: lifecycle, shutdown, panic policy
//!
//! Each shard owns one worker thread (named `ruskey-shard-<i>`) with a
//! private job queue, spawned when the store is constructed and alive
//! until it drops — thread spawn cost is paid once, not once per mission,
//! and `tests/pool_stress.rs` pins that the same OS threads serve
//! consecutive missions. Trees move, they are not shared: between
//! missions every [`FlsmTree`] lives on the store (so the plain KV
//! interface, introspection, and test harnesses keep direct access);
//! dispatching a job sends the tree into the shard's worker, and the
//! reply returns it. Exactly one side owns a tree at any instant, so no
//! locks guard the hot path. `N = 1` runs through the same pool code
//! path as any other shard count — there is no inline special case to
//! drift from the parallel one.
//!
//! **Shutdown**: dropping the store closes every job queue; each worker's
//! receive loop ends and the threads are joined (a drop never leaves
//! detached threads behind).
//!
//! **Panics**: a panicking worker (an engine bug — or the
//! `inject_worker_panic` test hook) unwinds through its run loop: the
//! in-flight tree and the shard's queue die with the thread, the dropped
//! reply channel surfaces as [`MissionError::WorkerPanicked`] on the
//! mission thread (never a hang), and every later dispatch fails fast
//! with [`MissionError::WorkerUnavailable`] *before* enqueuing anything —
//! the engine is permanently dead, it does not limp on with a missing
//! shard. One caveat is inherent to fan-out dispatch: the single dispatch
//! that *discovers* the death may already have enqueued sibling shards'
//! jobs, so those lanes execute (and, on a durable store, commit) — a
//! partially applied batch, which is why a failed store must be rebuilt
//! via [`ShardedRusKey::recover`] rather than retried in place.
//! [`ShardedRusKey::run_mission`] converts these errors into a panic with
//! the shard named; [`ShardedRusKey::try_run_mission`] returns them.
//!
//! ## Time domains: exact accounting under parallelism
//!
//! Each shard owns a private **time domain**: its tree runs on a
//! [`ShardStorage`](ruskey_storage::ShardStorage) view whose
//! [`VirtualClock`](ruskey_storage::VirtualClock) and metrics receive only
//! that shard's charges, while the shared device underneath aggregates
//! everything (device-busy time). The domain belongs to the view, not to
//! a thread, so charges are exact no matter which pool thread currently
//! owns the tree. At the store level the domains compose two ways:
//!
//! * **mission wall time** ([`MissionReport::end_to_end_ns`]) — the max
//!   over the participating shards' per-domain deltas (the mission is as
//!   slow as its busiest shard);
//! * **device-busy time** ([`MissionReport::device_busy_ns`]) — the sum
//!   over the domains (total virtual work placed on the shared device).
//!
//! The [`StatsCollector`] deltas every shard against its *own* baseline
//! before composing, which is what makes both readings exact. Ad-hoc
//! point/scan calls between missions fold into the next mission's delta
//! (as they always have); broadcast scans among them are tracked so the
//! report still counts every scan logically once.
//!
//! ## Durability: per-shard WALs + an overlapped group-commit barrier
//!
//! A store opened with [`ShardedRusKey::try_with_tuner_durable`] gives
//! every shard its own WAL file ([`DurabilityConfig::shard_wal_path`]):
//! shard workers append each put/delete to their log *before* the
//! memtable insert, without syncing per record. Every mission ends with a
//! **group-commit barrier**: each worker runs its shard's commit leg
//! ([`FlsmTree::commit_wal_timed`] — at most one fsync) as soon as its
//! lane finishes, so the per-shard fsyncs run *concurrently* instead of
//! sequentially on the mission thread. The batch's records become
//! acknowledged together at one sync per shard per mission, and the
//! barrier costs the max over the shards' legs, not their sum:
//! [`MissionReport::commit_ns`] is that max (the batch's durability
//! latency), [`MissionReport::commit_busy_ns`] the sum (the total sync
//! work, what a sequential barrier would have paid). A shard that crashes
//! mid-leg does not stop its siblings' fsyncs — their batches commit, and
//! the crash harness pins exactly which shards' records became durable.
//! Outside missions, [`ShardedRusKey::group_commit`] runs the same
//! overlapped barrier on demand. After a crash,
//! [`ShardedRusKey::recover`] replays every shard's log (valid prefix
//! only, order pinned by record sequence numbers) into fresh trees;
//! `tests/crash_recovery.rs` pins the recovery contract at every
//! [`ruskey_lsm::CrashPoint`] for `N ∈ {1, 2, 4}`.
//!
//! ## Full-store persistence: per-shard `FileDisk` + manifest
//!
//! The WAL protects only the write buffer; a store opened with
//! [`ShardedRusKey::try_with_tuner_persistent`] is durable **below** the
//! buffer too. Every shard gets its own directory
//! ([`PersistenceConfig`]): an independent
//! [`FileDisk`](ruskey_storage::FileDisk) for its data pages (private
//! file handles — the sharded real-file path carries no shared device
//! lock, and each disk's clock is the shard's time domain), a
//! [`Manifest`] that records the shard's run/level structure as atomic
//! per-mutation edit batches (with checkpoint compaction of the log
//! itself), and the shard's WAL. The ordering contract — data pages,
//! then manifest commit, then WAL truncation, with obsolete pages freed
//! only after the commit — means [`ShardedRusKey::recover_persistent`]
//! always rebuilds a consistent store: each manifest's longest
//! consistent prefix is folded back into levels, every recorded run is
//! rebuilt from its pages (fences and Bloom filters re-derived
//! identically), and the WAL tail replays on top, so the recovered
//! store is get/scan-identical to the one that was dropped.
//! `tests/persistence_restart.rs` pins restart equivalence at
//! `N ∈ {1, 2, 4}`; the manifest crash matrix in
//! `tests/crash_recovery.rs` pins every
//! [`ruskey_lsm::ManifestCrashPoint`].
//!
//! ## Ad-hoc operations and serving
//!
//! The plain KV interface (`get`/`put`/`delete`/`scan` between missions)
//! routes through the same shard workers as mission lanes: each call
//! ships the owning shard's tree to its worker, executes there, and ad-hoc
//! *writes* earn periodic boundary maintenance on the worker (every
//! [`ADHOC_BOUNDARY_OPS`] writes per shard, the same bounded
//! [`FlsmTree::maintain`] grant a mission lane gets) — so a put-heavy
//! ad-hoc caller sees the exact backpressure and `stall_ns` attribution
//! a mission would, and an ad-hoc scan's per-shard charges land in the
//! shards' own time domains, in parallel, exactly as on the mission
//! path. For *many concurrent callers*, [`ShardedRusKey::serve`] parks
//! every shard in a serving loop behind bounded MPSC queues — see
//! [`crate::frontend`] for the scheduler, admission control, and live
//! metrics.

use std::collections::{BinaryHeap, HashSet};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::Instant;

use bytes::Bytes;
use ruskey_lsm::{ConfigError, FlsmTree, Manifest, TreeStatsSnapshot, Wal};
use ruskey_storage::{BlockCache, CostModel, FileDisk, ShardStorage, Storage};
use ruskey_workload::routing::{shard_for_key, BalanceConfig, LoadSketch, RoutingTable};
use ruskey_workload::Operation;

use crate::db::RusKeyConfig;
use crate::frontend::{
    self, MetricsSnapshot, ServeShared, ServingConfig, ServingFrontend, ShardRequest,
};
use crate::lerp::Lerp;
use crate::stats::{MissionReport, StatsCollector};
use crate::tuner::{NoOpTuner, TreeObservation, Tuner};

/// Durability settings of a sharded store: where the per-shard WAL files
/// live and how eagerly each shard fsyncs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding one WAL file per shard (`shard-<i>.wal`);
    /// created if absent.
    pub dir: PathBuf,
    /// Per-shard auto-fsync cadence (records); 0 relies solely on the
    /// cross-shard group-commit barrier at mission boundaries — the
    /// default, and the cheapest policy: one sync per shard per batch.
    pub sync_every: u64,
}

impl DurabilityConfig {
    /// Group-commit-only durability (no per-record auto-sync) with WALs
    /// under `dir`.
    pub fn group_commit(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync_every: 0,
        }
    }

    /// The WAL file path of one shard.
    pub fn shard_wal_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.wal"))
    }
}

/// Full-store persistence settings: where each shard's on-disk state
/// lives and how the two logs behave.
///
/// A persistent store gives every shard its **own directory** under
/// `root`, holding an independent [`FileDisk`] (its own file handles —
/// shards never serialize against each other on the real-file path), a
/// [`Manifest`] recording the shard's run/level structure, and a WAL for
/// its write buffer:
///
/// ```text
/// root/
///   shard-0/ data/extent-*.run  MANIFEST  wal
///   shard-1/ data/extent-*.run  MANIFEST  wal
///   ...
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PersistenceConfig {
    /// Root directory of the store; one subdirectory per shard.
    pub root: PathBuf,
    /// Page size of the per-shard file disks.
    pub page_size: usize,
    /// Cost model charged for the (real) page I/O, keeping virtual-time
    /// accounting comparable with the simulated backend.
    pub cost: CostModel,
    /// Per-shard WAL auto-fsync cadence (records); 0 relies solely on
    /// the cross-shard group-commit barrier.
    pub sync_every: u64,
    /// Auto-compact each shard's manifest once this many structural
    /// edits accumulate since the last checkpoint (0 = never).
    pub checkpoint_every: u64,
    /// Per-shard block-cache capacity in pages; each shard's
    /// [`FileDisk`] serves reads through its own sharded LRU
    /// [`BlockCache`] of this size. 0 disables caching entirely (reads
    /// always reach the file).
    pub cache_pages: usize,
}

impl PersistenceConfig {
    /// Defaults: 4 KiB pages, the NVMe cost model, group-commit-only WAL
    /// syncs, a manifest checkpoint every 1024 edits, and a 4096-page
    /// (16 MiB) block cache per shard.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            page_size: ruskey_storage::DEFAULT_PAGE_SIZE,
            cost: CostModel::NVME,
            sync_every: 0,
            checkpoint_every: 1024,
            cache_pages: 4096,
        }
    }

    /// Builds one shard's storage stack: a [`FileDisk`] over `data`,
    /// served through a [`BlockCache`] when `cache_pages > 0`.
    fn open_disk(&self, data: &std::path::Path) -> std::io::Result<Arc<dyn Storage>> {
        let disk = FileDisk::new(data, self.page_size, self.cost)?;
        Ok(if self.cache_pages > 0 {
            BlockCache::new(disk, self.cache_pages)
        } else {
            disk
        })
    }

    /// One shard's directory.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard}"))
    }

    /// One shard's data-page directory (its `FileDisk` root).
    pub fn data_dir(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("data")
    }

    /// One shard's manifest path.
    pub fn manifest_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("MANIFEST")
    }

    /// One shard's WAL path.
    pub fn wal_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("wal")
    }

    /// Number of shards the on-disk layout describes (highest `shard-<i>`
    /// directory index + 1), or 0 for a fresh root.
    pub fn shards_described(&self) -> std::io::Result<usize> {
        let mut described = 0usize;
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let name = entry?.file_name();
            if let Some(idx) = name
                .to_string_lossy()
                .strip_prefix("shard-")
                .and_then(|s| s.parse::<usize>().ok())
            {
                described = described.max(idx + 1);
            }
        }
        Ok(described)
    }
}

/// Why a durable store could not be opened or recovered.
#[derive(Debug)]
pub enum OpenError {
    /// The LSM configuration was rejected.
    Config(ConfigError),
    /// A WAL file could not be created, read, or truncated.
    Io(std::io::Error),
    /// Recovery found a different number of shard logs than the requested
    /// shard count — proceeding would silently drop or misroute their
    /// acknowledged writes.
    ShardCountMismatch {
        /// Number of shard logs the directory describes (highest
        /// `shard-<i>.wal` index + 1).
        logs: usize,
        /// The shard count recovery was asked for.
        shards: usize,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Config(e) => write!(f, "invalid configuration: {e}"),
            OpenError::Io(e) => write!(f, "WAL I/O failed: {e}"),
            OpenError::ShardCountMismatch { logs, shards } => write!(
                f,
                "log directory describes {logs} shards but recovery was asked \
                 for {shards}; the routing hash keys on the shard count, so a \
                 mismatch would drop or misroute acknowledged writes"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<ConfigError> for OpenError {
    fn from(e: ConfigError) -> Self {
        OpenError::Config(e)
    }
}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

/// Why the worker pool could not execute a mission or commit barrier.
///
/// Worker failures are terminal: the engine reports the failure cleanly
/// (instead of hanging or limping on with a missing shard) and refuses
/// all further pool work. On the *first* failing dispatch — the one that
/// discovers the death — sibling shards whose jobs were already enqueued
/// still execute (and, on a durable store, commit) their lanes: a
/// partially applied batch. Callers must treat the store as failed and,
/// if durable, rebuild it with [`ShardedRusKey::recover`]; every later
/// dispatch fails fast before enqueuing anything.
#[derive(Debug)]
pub enum MissionError {
    /// A shard's worker panicked while executing its job — the shard's
    /// tree died with the thread, and the engine is permanently
    /// unavailable.
    WorkerPanicked {
        /// The shard whose worker died.
        shard: usize,
    },
    /// A shard's worker was dead when its job was dispatched (an earlier
    /// panic). The dead shard executed nothing — its tree is untouched
    /// and back on the store — but siblings dispatched before the death
    /// was observed may have executed their lanes (first failure only;
    /// the engine fails fast afterwards).
    WorkerUnavailable {
        /// The shard whose worker is gone.
        shard: usize,
    },
    /// A shard's WAL failed with a real I/O error during its commit leg
    /// (the first failing shard, if several failed in one barrier). The
    /// engine itself stays alive: every tree is back on the store and the
    /// batch's lanes were applied, but the failing shard's records are
    /// not acknowledged.
    Wal {
        /// The shard whose log failed.
        shard: usize,
        /// The underlying I/O error.
        error: std::io::Error,
    },
}

impl std::fmt::Display for MissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MissionError::WorkerPanicked { shard } => {
                write!(f, "shard {shard}'s worker panicked; the engine is dead")
            }
            MissionError::WorkerUnavailable { shard } => write!(
                f,
                "shard {shard}'s worker is gone (earlier panic); the engine is dead"
            ),
            MissionError::Wal { shard, error } => {
                write!(f, "shard {shard}'s WAL commit failed: {error}")
            }
        }
    }
}

impl std::error::Error for MissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MissionError::Wal { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Latency/work composition of one overlapped group-commit barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Barrier latency (virtual ns): the max over the shards' commit
    /// legs — the fsyncs run concurrently, so the batch waits only for
    /// the slowest shard.
    pub barrier_ns: u64,
    /// Total sync work (virtual ns): the sum over the shards' commit
    /// legs — what a sequential barrier would have cost.
    pub busy_ns: u64,
    /// Shards that actually issued an fsync (shards with nothing
    /// unacknowledged skip theirs).
    pub syncs: u64,
}

/// How a sharded store's learned tuning is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TunerStrategy {
    /// One tuner observes the shard-merged statistics and fans its
    /// policy changes out to every shard — the paper's single-tree
    /// tuning loop, unchanged.
    #[default]
    Global,
    /// Every shard owns its own tuner, fed by that shard's own reward
    /// slice and observation; policy changes apply only to the owning
    /// shard, so per-shard policies may diverge under skew.
    PerShard,
}

/// The store's tuner(s), shaped by its [`TunerStrategy`].
enum Tuning {
    Global(Box<dyn Tuner>),
    /// One tuner per shard, in shard order.
    PerShard(Vec<Box<dyn Tuner>>),
}

/// Hot-shard mitigation state: the detection sketch plus its knobs.
struct Balancer {
    cfg: BalanceConfig,
    sketch: LoadSketch,
}

/// Ad-hoc writes per shard between boundary maintenance grants on the
/// worker — the serving/ad-hoc twin of a mission lane's boundary (the
/// compaction bench pins lane boundaries at the same order of magnitude).
pub(crate) const ADHOC_BOUNDARY_OPS: u64 = 32;

/// Bounded maintenance steps per boundary grant, identical to the grant a
/// mission lane gets between its operations and its commit leg.
const BOUNDARY_MAINTAIN_STEPS: u64 = 4;

/// One ad-hoc operation executed on the owning shard's worker.
enum AdhocOp {
    Get(Bytes),
    Put(Bytes, Bytes),
    Delete(Bytes),
    Scan {
        start: Bytes,
        end: Bytes,
        limit: usize,
    },
}

/// The payload an ad-hoc job sends home with its tree.
enum AdhocOut {
    Value(Option<Bytes>),
    Written,
    Scan(Vec<(Bytes, Bytes)>),
}

/// One unit of work for a shard worker. Every variant that executes
/// carries the shard's tree in and returns it with the reply — trees are
/// owned by exactly one side at any instant.
enum Job {
    /// Execute a mission lane, then run the shard's group-commit leg
    /// (fsync overlapped with the sibling shards' legs).
    Lane {
        tree: FlsmTree,
        ops: Vec<Operation>,
        reply: Sender<Done>,
    },
    /// A standalone commit-barrier leg ([`ShardedRusKey::group_commit`]
    /// outside a mission).
    Commit { tree: FlsmTree, reply: Sender<Done> },
    /// One ad-hoc op from the plain KV interface, executed on the shard's
    /// worker so its charges land in the shard's own time domain and
    /// (for writes) boundary maintenance interleaves exactly as on the
    /// mission path. No commit leg: durability still comes from the
    /// group-commit barrier.
    Adhoc {
        tree: FlsmTree,
        op: AdhocOp,
        /// Grant boundary maintenance after the op (every
        /// [`ADHOC_BOUNDARY_OPS`]th write per shard).
        maintain: bool,
        reply: Sender<Done>,
    },
    /// Park the shard in the serving loop ([`crate::frontend`]): the
    /// worker drains the session's bounded request queue in batches until
    /// shutdown, then ships the tree home.
    Serve {
        tree: FlsmTree,
        requests: Receiver<ShardRequest>,
        shared: Arc<ServeShared>,
        reply: Sender<Done>,
    },
    /// Test hook: panic on the worker thread (`tests/pool_stress.rs`
    /// asserts the panic surfaces as a clean [`MissionError`]).
    Panic,
}

impl Job {
    /// Recovers the tree from a job that could not be dispatched (the
    /// worker's queue is gone).
    fn into_tree(self) -> Option<FlsmTree> {
        match self {
            Job::Lane { tree, .. }
            | Job::Commit { tree, .. }
            | Job::Adhoc { tree, .. }
            | Job::Serve { tree, .. } => Some(tree),
            Job::Panic => None,
        }
    }
}

/// Outcome of one shard's commit leg.
#[derive(Debug, Default)]
struct CommitLeg {
    /// Whether an fsync was issued (idle shards skip theirs).
    synced: bool,
    /// Virtual ns the leg added to the shard's time domain.
    ns: u64,
    /// A real I/O failure, surfaced as [`MissionError::Wal`].
    error: Option<std::io::Error>,
}

/// A worker's reply: the tree comes home together with what happened.
/// `pub(crate)` so [`crate::frontend::ServingFrontend`] can hold the
/// serving session's tree-return channel; the fields stay module-private.
pub(crate) struct Done {
    shard: usize,
    tree: FlsmTree,
    worker: ThreadId,
    commit: CommitLeg,
    /// An ad-hoc job's result payload ([`Job::Adhoc`] only).
    adhoc: Option<AdhocOut>,
}

/// A completed shard job after its tree has been restored to the store.
struct ShardDone {
    shard: usize,
    worker: ThreadId,
    commit: CommitLeg,
    adhoc: Option<AdhocOut>,
}

/// Runs one shard's commit leg, measured on the tree's own time domain.
fn commit_leg(tree: &mut FlsmTree) -> CommitLeg {
    match tree.commit_wal_timed() {
        Ok((synced, ns)) => CommitLeg {
            synced,
            ns,
            error: None,
        },
        Err(error) => CommitLeg {
            synced: false,
            ns: 0,
            error: Some(error),
        },
    }
}

/// Executes one workload operation against a shard's tree, discarding
/// read results (mission semantics: reads are performed for their cost,
/// the caller does not consume their output).
fn execute_op(tree: &mut FlsmTree, op: &Operation) {
    match op {
        Operation::Get { key } => {
            tree.get(key);
        }
        Operation::Put { key, value } => {
            tree.put(key.clone(), value.clone());
        }
        Operation::Delete { key } => {
            tree.delete(key.clone());
        }
        Operation::Scan { start, end, limit } => {
            tree.scan(start, end, *limit);
        }
    }
}

/// The run loop of one shard worker: executes jobs until the store drops
/// the shard's queue (shutdown), returning every tree with its reply. A
/// panic unwinds through the loop — the in-flight tree and the queue die
/// with the thread, which is exactly the signal the mission thread turns
/// into [`MissionError::WorkerPanicked`].
fn worker_loop(shard: usize, jobs: Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Lane {
                mut tree,
                ops,
                reply,
            } => {
                for op in &ops {
                    execute_op(&mut tree, op);
                }
                // The shard's background maintenance lane: deferred
                // flushes and compactions run here, between the lane's
                // operations and its commit leg — off every op's path,
                // overlapped with the sibling shards' lanes.
                if tree.config().background_maintenance {
                    tree.maintain(BOUNDARY_MAINTAIN_STEPS);
                }
                // The commit leg runs as soon as this shard's lane is
                // done — overlapped with siblings still executing theirs.
                let commit = commit_leg(&mut tree);
                let _ = reply.send(Done {
                    shard,
                    tree,
                    worker: thread::current().id(),
                    commit,
                    adhoc: None,
                });
            }
            Job::Commit { mut tree, reply } => {
                let commit = commit_leg(&mut tree);
                let _ = reply.send(Done {
                    shard,
                    tree,
                    worker: thread::current().id(),
                    commit,
                    adhoc: None,
                });
            }
            Job::Adhoc {
                mut tree,
                op,
                maintain,
                reply,
            } => {
                let out = match op {
                    AdhocOp::Get(key) => AdhocOut::Value(tree.get(&key)),
                    AdhocOp::Put(key, value) => {
                        tree.put(key, value);
                        AdhocOut::Written
                    }
                    AdhocOp::Delete(key) => {
                        tree.delete(key);
                        AdhocOut::Written
                    }
                    AdhocOp::Scan { start, end, limit } => {
                        AdhocOut::Scan(tree.scan(&start, &end, limit))
                    }
                };
                // Every ADHOC_BOUNDARY_OPS-th write is a boundary: the
                // same bounded maintenance grant a mission lane gets, so
                // an ad-hoc write burst pays down its deferred work
                // instead of deferring it forever.
                if maintain && tree.config().background_maintenance {
                    tree.maintain(BOUNDARY_MAINTAIN_STEPS);
                }
                let _ = reply.send(Done {
                    shard,
                    tree,
                    worker: thread::current().id(),
                    commit: CommitLeg::default(),
                    adhoc: Some(out),
                });
            }
            Job::Serve {
                mut tree,
                requests,
                shared,
                reply,
            } => {
                frontend::serve_shard(shard, &mut tree, &requests, &shared);
                let _ = reply.send(Done {
                    shard,
                    tree,
                    worker: thread::current().id(),
                    commit: CommitLeg::default(),
                    adhoc: None,
                });
            }
            Job::Panic => panic!("injected shard-worker panic (test hook)"),
        }
    }
}

/// One shard's worker: its job queue and join handle. `tx` is dropped
/// first at shutdown so the worker's receive loop ends before the join.
struct PoolWorker {
    tx: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

/// The persistent worker pool: one long-lived thread per shard.
struct WorkerPool {
    workers: Vec<PoolWorker>,
}

impl WorkerPool {
    /// Spawns one named worker thread per shard.
    fn spawn(shards: usize) -> Self {
        let workers = (0..shards)
            .map(|i| {
                let (tx, rx) = mpsc::channel();
                let handle = thread::Builder::new()
                    .name(format!("ruskey-shard-{i}"))
                    .spawn(move || worker_loop(i, rx))
                    .expect("spawn shard worker thread");
                PoolWorker {
                    tx: Some(tx),
                    handle: Some(handle),
                }
            })
            .collect();
        Self { workers }
    }

    /// Enqueues a job on one shard's worker; returns the job (boxed, so
    /// its tree can be recovered) if the worker is gone.
    fn send(&self, shard: usize, job: Job) -> Result<(), Box<Job>> {
        match &self.workers[shard].tx {
            Some(tx) => tx.send(job).map_err(|mpsc::SendError(job)| Box::new(job)),
            None => Err(Box::new(job)),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close every queue first so all workers wind down concurrently,
        // then join. A worker that panicked reports its error through the
        // mission path; the join here must not double-panic during drop.
        for w in &mut self.workers {
            w.tx = None;
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// An RL-tuned key-value store over `N` hash-partitioned FLSM shards,
/// executed by a persistent per-shard worker pool.
pub struct ShardedRusKey {
    /// One tree per shard. `None` only while a job holding the tree is in
    /// flight on the shard's worker — or permanently, after that worker
    /// panicked and took the tree with it.
    shards: Vec<Option<FlsmTree>>,
    pool: WorkerPool,
    tuning: Tuning,
    collector: StatsCollector,
    last_report: Option<MissionReport>,
    /// The OS thread that served each shard in the last pool dispatch, in
    /// shard order. `tests/pool_stress.rs` pins these stable across
    /// missions (pool reuse, not respawn).
    last_workers: Vec<ThreadId>,
    /// Ad-hoc [`ShardedRusKey::scan`] calls since the last mission report
    /// (or baseline). Each one broadcast to every shard, so the next
    /// mission's physical scan delta includes them `N` times; tracking
    /// them keeps the broadcast invariant exact.
    adhoc_scans: u64,
    /// Lifetime ad-hoc writes per shard: every [`ADHOC_BOUNDARY_OPS`]-th
    /// one is a maintenance boundary on the shard's worker.
    adhoc_writes: Vec<u64>,
    /// Set once a dispatch observed a dead worker: every later dispatch
    /// fails fast with [`MissionError::WorkerUnavailable`] *before*
    /// enqueuing anything, so a dead engine applies at most one partial
    /// batch (the dispatch that discovered the death) and never more.
    dead_worker: Option<usize>,
    /// Per-key routing overrides (re-homed hot keys). Empty — pure hash
    /// routing — until the balancer moves something.
    routes: RoutingTable,
    /// For each override, the shard the key was last migrated *from*
    /// (its previous route). Persisted alongside the override so
    /// recovery knows where a half-copied value still lives even after
    /// a chain of migrations has moved the key far from its hash home.
    route_sources: std::collections::HashMap<Bytes, usize>,
    /// Hot-shard mitigation, armed by [`ShardedRusKey::enable_balancing`].
    balancer: Option<Balancer>,
    /// Balancing passes that actually migrated keys.
    rebalances: u64,
    /// Where the routing overrides persist (durable/persistent stores
    /// only); `None` keeps them in memory.
    routes_path: Option<PathBuf>,
}

impl ShardedRusKey {
    /// Creates a sharded store driven by an arbitrary tuner, rejecting
    /// invalid configurations instead of panicking. The per-shard worker
    /// pool is spawned here and lives until the store drops.
    ///
    /// All shards share `storage` for data and device-level accounting,
    /// but each runs on its own [`ShardStorage`] view — a private time
    /// domain — so per-shard time and I/O attribution stays exact under
    /// parallel missions.
    ///
    /// # Panics
    /// Panics if `shards` is zero — a shard count is a structural choice
    /// made in code, not runtime input.
    pub fn try_with_tuner(
        cfg: RusKeyConfig,
        shards: usize,
        storage: Arc<dyn Storage>,
        tuner: Box<dyn Tuner>,
    ) -> Result<Self, ConfigError> {
        assert!(shards >= 1, "a store needs at least one shard");
        let trees = (0..shards)
            .map(|_| {
                let view: Arc<dyn Storage> = ShardStorage::new(Arc::clone(&storage));
                FlsmTree::try_new(cfg.lsm.clone(), view).map(Some)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(trees, Tuning::Global(tuner)))
    }

    /// Creates a sharded store with **one tuner per shard** — one shard
    /// per element of `tuners`, in shard order. Each tuner sees only its
    /// own shard's reward slice and observation, and its policy changes
    /// apply only to that shard.
    ///
    /// # Panics
    /// Panics if `tuners` is empty.
    pub fn try_with_tuners(
        cfg: RusKeyConfig,
        storage: Arc<dyn Storage>,
        tuners: Vec<Box<dyn Tuner>>,
    ) -> Result<Self, ConfigError> {
        assert!(!tuners.is_empty(), "a store needs at least one shard");
        let trees = (0..tuners.len())
            .map(|_| {
                let view: Arc<dyn Storage> = ShardStorage::new(Arc::clone(&storage));
                FlsmTree::try_new(cfg.lsm.clone(), view).map(Some)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(trees, Tuning::PerShard(tuners)))
    }

    /// Creates a sharded store with an independent Lerp instance per
    /// shard. Shard 0 keeps `cfg.lerp.seed` unchanged — which is what
    /// makes a one-shard per-shard store bit-identical to a global store
    /// tuned by `Lerp::new(cfg.lerp)` — and shard `i` derives its
    /// seed as `seed + i·104729` (the same prime-stride idiom as
    /// [`crate::tuner::PerLevelNoPropagation`]), so sibling agents
    /// explore independently.
    pub fn try_with_per_shard_lerp(
        cfg: RusKeyConfig,
        shards: usize,
        storage: Arc<dyn Storage>,
    ) -> Result<Self, ConfigError> {
        assert!(shards >= 1, "a store needs at least one shard");
        let tuners = (0..shards)
            .map(|i| {
                let mut lc = cfg.lerp.clone();
                lc.seed = lc.seed.wrapping_add(i as u64 * 104_729);
                Box::new(Lerp::new(lc)) as Box<dyn Tuner>
            })
            .collect();
        Self::try_with_tuners(cfg, storage, tuners)
    }

    /// Assembles the store around its trees and tuning, spawning the
    /// worker pool.
    fn assemble(trees: Vec<Option<FlsmTree>>, tuning: Tuning) -> Self {
        let shards = trees.len();
        Self {
            shards: trees,
            pool: WorkerPool::spawn(shards),
            tuning,
            collector: StatsCollector::new(),
            last_report: None,
            last_workers: Vec::new(),
            adhoc_scans: 0,
            adhoc_writes: vec![0; shards],
            dead_worker: None,
            routes: RoutingTable::new(),
            route_sources: std::collections::HashMap::new(),
            balancer: None,
            rebalances: 0,
            routes_path: None,
        }
    }

    /// Creates a *durable* sharded store: every shard gets its own WAL
    /// file under `durability.dir` (appended before each memtable insert,
    /// truncated on flush), and missions end with an overlapped
    /// cross-shard group-commit barrier — at most one fsync per shard per
    /// mission, run concurrently on the shard workers.
    pub fn try_with_tuner_durable(
        cfg: RusKeyConfig,
        shards: usize,
        storage: Arc<dyn Storage>,
        tuner: Box<dyn Tuner>,
        durability: &DurabilityConfig,
    ) -> Result<Self, OpenError> {
        std::fs::create_dir_all(&durability.dir)?;
        let mut store = Self::try_with_tuner(cfg, shards, storage, tuner)?;
        // Index by shard *slot*, not by position after a flatten: the WAL
        // file ↔ shard mapping must never shift past an empty slot.
        for (i, slot) in store.shards.iter_mut().enumerate() {
            let tree = slot.as_mut().expect("freshly constructed shard");
            let path = durability.shard_wal_path(i);
            // A fresh store starts from empty logs: leftovers from a
            // previous incarnation would otherwise merge into a later
            // recovery with colliding sequence numbers (this store's seq
            // restarts at 1). [`ShardedRusKey::recover`] is the explicit
            // path for continuing from existing logs.
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            tree.attach_wal(Wal::open_with_sync_every(path, durability.sync_every)?);
        }
        // A fresh store starts from hash routing: a previous
        // incarnation's re-homed keys no longer exist.
        let routes = durability.dir.join(ROUTES_FILE);
        match std::fs::remove_file(&routes) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        store.routes_path = Some(routes);
        Ok(store)
    }

    /// Creates a **fully persistent** sharded store: every shard gets its
    /// own directory under `persistence.root` with an independent
    /// [`FileDisk`] for its data pages, a [`Manifest`] recording its
    /// run/level structure (committed atomically on every flush,
    /// compaction, and transition), and a WAL for its write buffer (one
    /// fsync per shard per mission via the group-commit barrier). Such a
    /// store survives a full restart — flushed runs included — through
    /// [`ShardedRusKey::recover_persistent`].
    ///
    /// Any previous incarnation under the same root is wiped first (a
    /// fresh store restarts sequence numbers at 1; `recover_persistent`
    /// is the explicit path for continuing).
    pub fn try_with_tuner_persistent(
        cfg: RusKeyConfig,
        shards: usize,
        tuner: Box<dyn Tuner>,
        persistence: &PersistenceConfig,
    ) -> Result<Self, OpenError> {
        assert!(shards >= 1, "a store needs at least one shard");
        cfg.lsm.validate()?;
        // Wipe the *whole* previous incarnation, including shard dirs
        // beyond the new count — a leftover higher-index directory would
        // make every later `recover_persistent` refuse the store as a
        // shard-count mismatch.
        for i in 0..shards.max(persistence.shards_described()?) {
            match std::fs::remove_dir_all(persistence.shard_dir(i)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        let mut trees = Vec::with_capacity(shards);
        for i in 0..shards {
            let data = persistence.data_dir(i);
            std::fs::create_dir_all(&data)?;
            let disk = persistence.open_disk(&data)?;
            let mut tree = FlsmTree::try_new(cfg.lsm.clone(), disk)?;
            tree.attach_manifest(Manifest::create(
                persistence.manifest_path(i),
                persistence.checkpoint_every,
            )?);
            tree.attach_wal(Wal::open_with_sync_every(
                persistence.wal_path(i),
                persistence.sync_every,
            )?);
            trees.push(Some(tree));
        }
        let mut store = Self::assemble(trees, Tuning::Global(tuner));
        let routes = persistence.root.join(ROUTES_FILE);
        match std::fs::remove_file(&routes) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        store.routes_path = Some(routes);
        Ok(store)
    }

    /// Recovers a fully persistent sharded store after a restart: each
    /// shard reopens its [`FileDisk`] directory, folds its manifest's
    /// longest consistent prefix back into the run/level structure
    /// (rebuilding every run from its data pages, with fence pointers and
    /// Bloom filters re-derived identically), and replays its WAL tail on
    /// top — so the recovered store is get/scan-identical to the store
    /// that was dropped. The statistics baseline is reset so the first
    /// mission's report excludes recovery work; the lifetime recovery
    /// counters (`manifest_edits`, `runs_recovered`, `replayed_tail`)
    /// surface through [`TreeStatsSnapshot`] and [`MissionReport`].
    ///
    /// The same `shards` count that produced the layout must be passed
    /// (the routing hash keys on it); recovering fewer shards than the
    /// root describes is refused.
    pub fn recover_persistent(
        cfg: RusKeyConfig,
        shards: usize,
        tuner: Box<dyn Tuner>,
        persistence: &PersistenceConfig,
    ) -> Result<Self, OpenError> {
        assert!(shards >= 1, "a store needs at least one shard");
        cfg.lsm.validate()?;
        // A persistent store always creates every shard directory, so the
        // layout describes its exact creation count: recovery must match
        // it in *both* directions — fewer shards would drop acknowledged
        // writes, more would misroute them (the hash keys on the count)
        // and silently hide durable data behind empty shards.
        let described = persistence.shards_described()?;
        if described != 0 && described != shards {
            return Err(OpenError::ShardCountMismatch {
                logs: described,
                shards,
            });
        }
        let mut trees = Vec::with_capacity(shards);
        for i in 0..shards {
            let data = persistence.data_dir(i);
            std::fs::create_dir_all(&data)?;
            let disk = persistence.open_disk(&data)?;
            trees.push(Some(FlsmTree::recover_persistent(
                cfg.lsm.clone(),
                disk,
                persistence.manifest_path(i),
                persistence.wal_path(i),
                persistence.sync_every,
                persistence.checkpoint_every,
            )?));
        }
        let mut store = Self::assemble(trees, Tuning::Global(tuner));
        let routes = persistence.root.join(ROUTES_FILE);
        let entries = load_routes(&routes)?;
        store.routes_path = Some(routes);
        store.settle_routes(entries)?;
        store.collector.baseline_shards(store.shard_snapshots());
        Ok(store)
    }

    /// Recovers a durable sharded store after a crash: each shard's WAL
    /// is replayed (valid prefix only, order pinned by record sequence
    /// numbers, torn tails truncated away) into a fresh tree, and the
    /// statistics baseline is reset so the first mission's report
    /// excludes recovery work.
    ///
    /// Per-shard WALs recover independently, which is exactly why the
    /// routing hash must stay stable: the same `shards` count must be
    /// passed that produced the logs; any other count is refused.
    pub fn recover(
        cfg: RusKeyConfig,
        shards: usize,
        storage: Arc<dyn Storage>,
        tuner: Box<dyn Tuner>,
        durability: &DurabilityConfig,
    ) -> Result<Self, OpenError> {
        assert!(shards >= 1, "a store needs at least one shard");
        cfg.lsm.validate()?;
        std::fs::create_dir_all(&durability.dir)?;
        // Every durable shard creates its log at open, so the directory
        // describes its exact creation count: recovery must match it in
        // both directions — fewer shards would drop the extra logs'
        // acknowledged writes, more would misroute them (the routing hash
        // keys on the shard count) behind empty shards.
        let mut logs = 0usize;
        for entry in std::fs::read_dir(&durability.dir)? {
            let name = entry?.file_name();
            let idx = name
                .to_string_lossy()
                .strip_prefix("shard-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<usize>().ok());
            if let Some(idx) = idx {
                logs = logs.max(idx + 1);
            }
        }
        if logs != 0 && logs != shards {
            return Err(OpenError::ShardCountMismatch { logs, shards });
        }
        let trees = (0..shards)
            .map(|i| {
                let view: Arc<dyn Storage> = ShardStorage::new(Arc::clone(&storage));
                FlsmTree::recover(
                    cfg.lsm.clone(),
                    view,
                    durability.shard_wal_path(i),
                    durability.sync_every,
                )
                .map(Some)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut store = Self::assemble(trees, Tuning::Global(tuner));
        let routes = durability.dir.join(ROUTES_FILE);
        let entries = load_routes(&routes)?;
        store.routes_path = Some(routes);
        store.settle_routes(entries)?;
        store.collector.baseline_shards(store.shard_snapshots());
        Ok(store)
    }

    /// Creates an untuned sharded store.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `shards` is zero.
    pub fn untuned(cfg: RusKeyConfig, shards: usize, storage: Arc<dyn Storage>) -> Self {
        Self::try_with_tuner(cfg, shards, storage, Box::new(NoOpTuner))
            .unwrap_or_else(|e| panic!("invalid RusKeyConfig: {e}"))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's tree, which lives on the store between missions.
    ///
    /// # Panics
    /// Panics if the shard's worker panicked and took the tree with it
    /// (the engine is dead; see [`MissionError`]).
    fn tree(&self, idx: usize) -> &FlsmTree {
        self.shards[idx]
            .as_ref()
            .unwrap_or_else(|| panic!("shard {idx}'s worker died; the engine is unavailable"))
    }

    /// Mutable counterpart of [`ShardedRusKey::tree`].
    fn tree_mut(&mut self, idx: usize) -> &mut FlsmTree {
        self.shards[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("shard {idx}'s worker died; the engine is unavailable"))
    }

    /// Read access to one shard's tree (experiments and introspection).
    pub fn shard(&self, idx: usize) -> &FlsmTree {
        self.tree(idx)
    }

    /// Mutable access to one shard's tree (test harnesses arm WAL crash
    /// points through this).
    pub fn shard_mut(&mut self, idx: usize) -> &mut FlsmTree {
        self.tree_mut(idx)
    }

    /// True if any shard's WAL *or manifest* simulated a process crash
    /// (fault injection): the store is dead and the harness should
    /// recover from the logs.
    pub fn crashed(&self) -> bool {
        self.shards.iter().flatten().any(FlsmTree::crashed)
    }

    /// Test hook (`tests/pool_stress.rs`): makes the given shard's worker
    /// panic on its next job, simulating an engine bug on a pool thread.
    /// The next dispatch observes the death as a clean [`MissionError`]
    /// instead of a hang. A production store never calls this.
    #[doc(hidden)]
    pub fn inject_worker_panic(&mut self, shard: usize) {
        // Best-effort: if the worker is already gone the send fails,
        // which is the state the hook wanted anyway.
        let _ = self.pool.send(shard, Job::Panic);
    }

    /// Dispatches one job per shard onto the worker pool and collects the
    /// replies, restoring every returned tree to its slot. This is the
    /// single synchronization point of the engine: worker death (queue
    /// gone or reply never sent) surfaces here as a [`MissionError`], and
    /// per-shard worker threads/commit legs are recorded from the
    /// replies.
    fn dispatch(
        &mut self,
        mut job_for: impl FnMut(usize, FlsmTree, Sender<Done>) -> Job,
    ) -> Result<Vec<ShardDone>, MissionError> {
        // Fail fast on a known-dead engine *before* enqueuing anything:
        // only the dispatch that discovers a death executes partially.
        if let Some(shard) = self.dead_worker {
            return Err(MissionError::WorkerUnavailable { shard });
        }
        if let Some(shard) = self.shards.iter().position(Option::is_none) {
            return Err(MissionError::WorkerUnavailable { shard });
        }
        let n = self.shards.len();
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut dispatched = 0usize;
        let mut dead_shard = None;
        for i in 0..n {
            let tree = self.shards[i].take().expect("all trees checked present");
            match self.pool.send(i, job_for(i, tree, reply_tx.clone())) {
                Ok(()) => dispatched += 1,
                Err(job) => {
                    // The worker's queue is gone (it panicked earlier):
                    // recover the tree from the unsent job and keep
                    // collecting the shards already dispatched.
                    self.shards[i] = job.into_tree();
                    dead_shard.get_or_insert(i);
                }
            }
        }
        drop(reply_tx);
        let mut dones = Vec::with_capacity(dispatched);
        for _ in 0..dispatched {
            // recv() cannot hang: every reply sender lives inside a job,
            // and a worker either sends it or drops it by panicking — in
            // which case the channel closes once the remaining workers
            // finish.
            let Ok(done) = reply_rx.recv() else { break };
            let Done {
                shard,
                tree,
                worker,
                commit,
                adhoc,
            } = done;
            self.shards[shard] = Some(tree);
            dones.push(ShardDone {
                shard,
                worker,
                commit,
                adhoc,
            });
        }
        if let Some(shard) = dead_shard {
            self.dead_worker = Some(shard);
            return Err(MissionError::WorkerUnavailable { shard });
        }
        if dones.len() < dispatched {
            let shard = self
                .shards
                .iter()
                .position(Option::is_none)
                .expect("a missing reply leaves its tree unreturned");
            self.dead_worker = Some(shard);
            return Err(MissionError::WorkerPanicked { shard });
        }
        // Every shard replied: the dispatch fully executed, so the worker
        // introspection is current even if a commit leg failed below.
        let mut workers = vec![None; n];
        for d in &dones {
            workers[d.shard] = Some(d.worker);
        }
        self.last_workers = workers
            .into_iter()
            .map(|w| w.expect("every shard replied exactly once"))
            .collect();
        if let Some(d) = dones.iter_mut().find(|d| d.commit.error.is_some()) {
            return Err(MissionError::Wal {
                shard: d.shard,
                error: d.commit.error.take().expect("checked present"),
            });
        }
        Ok(dones)
    }

    /// The overlapped cross-shard group-commit barrier: every shard's
    /// worker syncs its WAL at most once, concurrently with its siblings,
    /// acknowledging every record logged since the previous barrier —
    /// one fsync per shard per batch instead of one per record. Shards
    /// with nothing unacknowledged skip their fsync; a shard whose WAL
    /// already crashed no-ops without stopping its siblings' legs (a dead
    /// process commits nothing further, but the others' batches become
    /// durable — which is what lets the crash harness pin exactly which
    /// shards' records survived).
    ///
    /// # Panics
    /// Panics on [`MissionError`]; use [`ShardedRusKey::try_group_commit`]
    /// for fallible operation.
    pub fn group_commit(&mut self) -> CommitStats {
        self.try_group_commit()
            .unwrap_or_else(|e| panic!("group commit failed: {e}"))
    }

    /// Fallible form of [`ShardedRusKey::group_commit`].
    pub fn try_group_commit(&mut self) -> Result<CommitStats, MissionError> {
        let dones = self.dispatch(|_, tree, reply| Job::Commit { tree, reply })?;
        Ok(commit_stats(&dones))
    }

    /// The store's tuning strategy.
    pub fn tuner_strategy(&self) -> TunerStrategy {
        match &self.tuning {
            Tuning::Global(_) => TunerStrategy::Global,
            Tuning::PerShard(_) => TunerStrategy::PerShard,
        }
    }

    /// The tuner's display name (per-shard: the first tuner's name with
    /// the shard count, e.g. `per-shard(lerp ×4)`).
    pub fn tuner_name(&self) -> String {
        match &self.tuning {
            Tuning::Global(t) => t.name(),
            Tuning::PerShard(ts) => format!("per-shard({} ×{})", ts[0].name(), ts.len()),
        }
    }

    /// Whether the tuner reports convergence (per-shard: *every* shard's
    /// tuner has converged).
    pub fn tuner_converged(&self) -> bool {
        match &self.tuning {
            Tuning::Global(t) => t.converged(),
            Tuning::PerShard(ts) => ts.iter().all(|t| t.converged()),
        }
    }

    /// Cumulative model-update time (Fig. 13; per-shard: summed over the
    /// shard tuners).
    pub fn model_update_ns(&self) -> u64 {
        match &self.tuning {
            Tuning::Global(t) => t.model_update_ns(),
            Tuning::PerShard(ts) => ts.iter().map(|t| t.model_update_ns()).sum(),
        }
    }

    /// The report of the last processed mission.
    pub fn last_report(&self) -> Option<&MissionReport> {
        self.last_report.as_ref()
    }

    /// Distinct OS worker threads used by the last pool dispatch (one per
    /// shard: `N` for an `N`-shard store, 1 when it has a single shard).
    pub fn last_parallelism(&self) -> usize {
        self.last_workers.iter().collect::<HashSet<_>>().len()
    }

    /// The OS thread that served each shard in the last pool dispatch, in
    /// shard order (empty before the first mission). The pool is
    /// persistent, so consecutive missions report identical IDs —
    /// `tests/pool_stress.rs` pins this.
    pub fn last_worker_threads(&self) -> &[ThreadId] {
        &self.last_workers
    }

    /// Store-wide statistics: every shard's snapshot merged
    /// ([`TreeStatsSnapshot::merge`]) — `clock_ns` is the wall
    /// composition (max over shard domains), `busy_ns` the device-busy
    /// composition (sum over shard domains).
    pub fn stats(&self) -> TreeStatsSnapshot {
        TreeStatsSnapshot::merge_all(&self.shard_snapshots())
    }

    /// One statistics snapshot per shard, in shard order — each covering
    /// exactly that shard's time domain.
    pub fn shard_snapshots(&self) -> Vec<TreeStatsSnapshot> {
        (0..self.shards.len())
            .map(|i| self.tree(i).stats())
            .collect()
    }

    // ------------------------------------------------------------------
    // Plain KV interface (outside missions)
    // ------------------------------------------------------------------

    fn owner(&self, key: &[u8]) -> usize {
        self.routes.shard_for(key, self.shards.len())
    }

    /// Feeds one routed point op into the balancer's sketch (no-op while
    /// balancing is off).
    fn observe_point_op(&mut self, key: &[u8], shard: usize) {
        if let Some(bal) = &mut self.balancer {
            bal.sketch.record(key, shard);
        }
    }

    /// Ships one ad-hoc op to the owning shard's worker and waits for the
    /// tree (and result) to come home. Worker death keeps the exact
    /// semantics the inline path had: a panic with the shard named, and a
    /// permanently dead engine.
    fn adhoc_one(&mut self, shard: usize, op: AdhocOp) -> AdhocOut {
        if let Some(s) = self.dead_worker {
            panic!("shard {s}'s worker died; the engine is unavailable");
        }
        let maintain = matches!(op, AdhocOp::Put(..) | AdhocOp::Delete(..)) && {
            self.adhoc_writes[shard] += 1;
            self.adhoc_writes[shard].is_multiple_of(ADHOC_BOUNDARY_OPS)
        };
        let tree = self.shards[shard]
            .take()
            .unwrap_or_else(|| panic!("shard {shard}'s worker died; the engine is unavailable"));
        let (reply_tx, reply_rx) = mpsc::channel();
        if let Err(job) = self.pool.send(
            shard,
            Job::Adhoc {
                tree,
                op,
                maintain,
                reply: reply_tx,
            },
        ) {
            self.shards[shard] = job.into_tree();
            self.dead_worker = Some(shard);
            panic!("shard {shard}'s worker died; the engine is unavailable");
        }
        match reply_rx.recv() {
            Ok(done) => {
                self.shards[done.shard] = Some(done.tree);
                done.adhoc.expect("an ad-hoc job replies with its result")
            }
            Err(_) => {
                self.dead_worker = Some(shard);
                panic!("shard {shard}'s worker died; the engine is unavailable");
            }
        }
    }

    /// Point lookup, routed to the owning shard's worker.
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        let s = self.owner(key);
        self.observe_point_op(key, s);
        match self.adhoc_one(s, AdhocOp::Get(Bytes::copy_from_slice(key))) {
            AdhocOut::Value(v) => v,
            _ => unreachable!("get replies with a value"),
        }
    }

    /// Insert or overwrite, routed to the owning shard's worker (which
    /// interleaves boundary maintenance exactly as mission lanes do —
    /// an ad-hoc write burst gets the same L0 backpressure and
    /// `stall_ns` attribution a mission would).
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        let key = key.into();
        let s = self.owner(&key);
        self.observe_point_op(&key, s);
        self.adhoc_one(s, AdhocOp::Put(key, value.into()));
    }

    /// Delete, routed to the owning shard's worker (same maintenance
    /// interleaving as [`ShardedRusKey::put`]).
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        let key = key.into();
        let s = self.owner(&key);
        self.observe_point_op(&key, s);
        self.adhoc_one(s, AdhocOp::Delete(key));
    }

    /// Range scan over `[start, end)` with a result limit: every shard
    /// scans its partition *on its own worker* — in parallel, each leg
    /// charged to its shard's time domain exactly as on the mission
    /// path — and the per-shard results (sorted, disjoint) are k-way
    /// merged into one globally sorted result.
    pub fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Bytes, Bytes)> {
        self.adhoc_scans += 1;
        let n = self.shards.len();
        let (s, e) = (Bytes::copy_from_slice(start), Bytes::copy_from_slice(end));
        let dones = self
            .dispatch(|_, tree, reply| Job::Adhoc {
                tree,
                op: AdhocOp::Scan {
                    start: s.clone(),
                    end: e.clone(),
                    limit,
                },
                maintain: false,
                reply,
            })
            .unwrap_or_else(|e| panic!("ad-hoc scan failed: {e}"));
        let mut per_shard: Vec<Vec<(Bytes, Bytes)>> = vec![Vec::new(); n];
        for d in dones {
            if let Some(AdhocOut::Scan(rows)) = d.adhoc {
                per_shard[d.shard] = rows;
            }
        }
        merge_sorted_scans(per_shard, limit)
    }

    // ------------------------------------------------------------------
    // Concurrent serving
    // ------------------------------------------------------------------

    /// Starts a serving session: every shard's tree ships to its worker,
    /// which parks in the serving loop behind a bounded request queue
    /// (capacity [`ServingConfig::queue_depth`]). The returned
    /// [`ServingFrontend`] is `Send + Sync`: hand out
    /// [`ServingClient`](crate::frontend::ServingClient)s to as many
    /// threads as you like — writes coalesce across clients into
    /// per-shard group-commit batches, the token bucket gates admission,
    /// and the live metrics registry tracks it all (see
    /// [`crate::frontend`]).
    ///
    /// While serving, the store itself has no trees: missions, ad-hoc
    /// ops, and introspection must wait until
    /// [`ShardedRusKey::finish_serving`] brings them home. Dropping the
    /// frontend without finishing leaves the engine permanently
    /// unavailable.
    pub fn serve(&mut self, cfg: ServingConfig) -> Result<ServingFrontend, MissionError> {
        if let Some(shard) = self.dead_worker {
            return Err(MissionError::WorkerUnavailable { shard });
        }
        if let Some(shard) = self.shards.iter().position(Option::is_none) {
            return Err(MissionError::WorkerUnavailable { shard });
        }
        let n = self.shards.len();
        let shared = Arc::new(ServeShared::new(cfg, n, self.routes.clone()));
        let (done_tx, done_rx) = mpsc::channel();
        let mut senders = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = mpsc::sync_channel(shared.cfg.queue_depth.max(1));
            let tree = self.shards[i].take().expect("all trees checked present");
            match self.pool.send(
                i,
                Job::Serve {
                    tree,
                    requests: rx,
                    shared: Arc::clone(&shared),
                    reply: done_tx.clone(),
                },
            ) {
                Ok(()) => senders.push(tx),
                Err(job) => {
                    // Worker i is gone: recover its tree from the unsent
                    // job, wind down the shards already serving (dropping
                    // their queue senders ends their loops), and fail.
                    self.shards[i] = job.into_tree();
                    self.dead_worker = Some(i);
                    drop(senders);
                    drop(done_tx);
                    while let Ok(done) = done_rx.recv() {
                        self.shards[done.shard] = Some(done.tree);
                    }
                    return Err(MissionError::WorkerUnavailable { shard: i });
                }
            }
        }
        drop(done_tx);
        Ok(ServingFrontend {
            senders,
            shared,
            done_rx: Mutex::new(done_rx),
            dispatched: n,
        })
    }

    /// Ends a serving session: sends each shard a shutdown request,
    /// collects the trees back onto the store, folds the served work out
    /// of the next mission's statistics delta (exactly like
    /// [`ShardedRusKey::bulk_load`] — the serving traffic is not a
    /// mission), and returns the session's final metrics snapshot.
    ///
    /// A shard whose serve loop already stopped (mid-serve crash
    /// injection, WAL failure) just returns its tree — the snapshot and
    /// [`ShardedRusKey::crashed`] tell the caller what happened. A shard
    /// whose *worker* died serving returns nothing, and the engine is
    /// dead: [`MissionError::WorkerPanicked`].
    pub fn finish_serving(
        &mut self,
        frontend: ServingFrontend,
    ) -> Result<MetricsSnapshot, MissionError> {
        let ServingFrontend {
            senders,
            shared,
            done_rx,
            dispatched,
        } = frontend;
        let done_rx = done_rx.into_inner().expect("serving done-channel poisoned");
        for tx in &senders {
            // A shard that already stopped serving has dropped its queue;
            // the failed send *is* the confirmation, not an error.
            let _ = tx.send(ShardRequest::Shutdown);
        }
        drop(senders);
        for _ in 0..dispatched {
            // Cannot hang: every worker either sends its Done (tree home)
            // or panicked — closing the channel once the rest finish.
            let Ok(done) = done_rx.recv() else { break };
            self.shards[done.shard] = Some(done.tree);
        }
        if let Some(shard) = self.shards.iter().position(Option::is_none) {
            self.dead_worker = Some(shard);
            return Err(MissionError::WorkerPanicked { shard });
        }
        // Snapshot after every loop stopped, so the final batches are in.
        let snapshot = shared.metrics.snapshot();
        self.collector.baseline_shards(self.shard_snapshots());
        self.adhoc_scans = 0;
        Ok(snapshot)
    }

    // ------------------------------------------------------------------
    // Mission-driven operation
    // ------------------------------------------------------------------

    /// Bulk-loads the store (pairs hash-partitioned onto their owning
    /// shards) and resets the statistics baseline so mission reports
    /// exclude the load.
    pub fn bulk_load(&mut self, pairs: Vec<(Bytes, Bytes)>) {
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<(Bytes, Bytes)>> = vec![Vec::new(); n];
        for (k, v) in pairs {
            per_shard[self.routes.shard_for(&k, n)].push((k, v));
        }
        for (i, shard_pairs) in per_shard.into_iter().enumerate() {
            if !shard_pairs.is_empty() {
                self.tree_mut(i).bulk_load(shard_pairs);
            }
        }
        self.collector.baseline_shards(self.shard_snapshots());
        self.adhoc_scans = 0;
    }

    /// Store-wide structure snapshot for tuners: per-level fill ratios
    /// and run counts *average* over the shards that have materialized
    /// the level — a lookup probes exactly one shard, so the mean run
    /// count is what the RL state's normalized `runs / T` feature
    /// expects (summing would scale it by `N` and push the tuner out of
    /// distribution) — and the per-level policy is the **modal** one
    /// across those shards (ties break toward the smaller K). Reporting
    /// `holders[0]`'s policy was silently wrong once per-shard tuning
    /// let policies diverge; the mode is exact whenever shards agree
    /// (the whole global-tuning regime) and representative otherwise.
    /// For a one-shard store this equals
    /// [`ShardedRusKey::observe_shard`]`(0)`.
    pub fn observe(&self) -> TreeObservation {
        let trees: Vec<&FlsmTree> = (0..self.shards.len()).map(|i| self.tree(i)).collect();
        let level_count = trees.iter().map(|t| t.level_count()).max().unwrap_or(0);
        let mut policies = Vec::with_capacity(level_count);
        let mut fills = Vec::with_capacity(level_count);
        let mut run_counts = Vec::with_capacity(level_count);
        for i in 0..level_count {
            let holders: Vec<&&FlsmTree> = trees.iter().filter(|t| t.level_count() > i).collect();
            let held: Vec<u32> = holders.iter().map(|t| t.policy(i)).collect();
            policies.push(modal_policy(&held));
            fills.push(holders.iter().map(|t| t.level_fill(i)).sum::<f64>() / holders.len() as f64);
            let mean_runs = holders.iter().map(|t| t.level_run_count(i)).sum::<usize>() as f64
                / holders.len() as f64;
            run_counts.push(mean_runs.round() as usize);
        }
        TreeObservation {
            policies,
            fills,
            run_counts,
            size_ratio: trees[0].config().size_ratio,
            level_count,
        }
    }

    /// One shard's structure snapshot, built from that shard's levels
    /// only — the observation a per-shard tuner acts on: the tree's own
    /// policies, fills and run counts, level by level.
    pub fn observe_shard(&self, idx: usize) -> TreeObservation {
        let tree = self.tree(idx);
        let n = tree.level_count();
        TreeObservation {
            policies: tree.policies(),
            fills: (0..n).map(|i| tree.level_fill(i)).collect(),
            run_counts: (0..n).map(|i| tree.level_run_count(i)).collect(),
            size_ratio: tree.config().size_ratio,
            level_count: n,
        }
    }

    /// Store-wide per-level policies: the modal policy across the shards
    /// holding each level (ties toward the smaller K) — exact whenever
    /// shards agree, which is always the case under global tuning. The
    /// per-shard truth is [`ShardedRusKey::shard_policies`].
    pub fn policies(&self) -> Vec<u32> {
        let trees: Vec<&FlsmTree> = (0..self.shards.len()).map(|i| self.tree(i)).collect();
        let level_count = trees.iter().map(|t| t.level_count()).max().unwrap_or(0);
        (0..level_count)
            .map(|i| {
                let held: Vec<u32> = trees
                    .iter()
                    .filter(|t| t.level_count() > i)
                    .map(|t| t.policy(i))
                    .collect();
                modal_policy(&held)
            })
            .collect()
    }

    /// Every shard's true per-level policies, in shard order — exact
    /// even when per-shard tuners have diverged.
    pub fn shard_policies(&self) -> Vec<Vec<u32>> {
        (0..self.shards.len())
            .map(|i| self.tree(i).policies())
            .collect()
    }

    /// Processes one mission: routes the operations into per-shard lanes,
    /// dispatches them onto the persistent worker pool (every shard
    /// count, `N = 1` included, runs the same code path), lets each
    /// worker run its shard's group-commit leg as soon as its lane
    /// finishes (overlapped fsyncs), builds the aggregated mission
    /// report, lets the global tuner act, and fans its policy changes out
    /// to every shard.
    ///
    /// # Panics
    /// Panics on [`MissionError`] (a dead worker or a WAL I/O failure);
    /// use [`ShardedRusKey::try_run_mission`] for fallible operation.
    pub fn run_mission(&mut self, ops: &[Operation]) -> MissionReport {
        self.try_run_mission(ops)
            .unwrap_or_else(|e| panic!("mission failed: {e}"))
    }

    /// Fallible form of [`ShardedRusKey::run_mission`]: worker panics and
    /// WAL I/O failures surface as [`MissionError`] instead of a panic
    /// (and never as a hang).
    pub fn try_run_mission(&mut self, ops: &[Operation]) -> Result<MissionReport, MissionError> {
        let t0 = Instant::now();
        let n = self.shards.len();
        // Logical scan count, taken at routing time: a range scan
        // broadcasts to every shard, so the shards' counters will see it
        // `N` times while the mission contains it once.
        let logical_scans = ops
            .iter()
            .filter(|op| matches!(op, Operation::Scan { .. }))
            .count() as u64;
        // Feed the balancer's sketch from the routed stream (off unless
        // balancing is armed): point ops nominate their key on their
        // routed shard, a broadcast scan weighs every shard once.
        if self.balancer.is_some() {
            for op in ops {
                match op {
                    Operation::Get { key }
                    | Operation::Put { key, .. }
                    | Operation::Delete { key } => {
                        let s = self.routes.shard_for(key, n);
                        self.observe_point_op(key, s);
                    }
                    Operation::Scan { .. } => {
                        if let Some(bal) = &mut self.balancer {
                            for s in 0..n {
                                bal.sketch.record_bulk(s, 1);
                            }
                        }
                    }
                }
            }
        }
        let mut lanes: Vec<Option<Vec<Operation>>> = self
            .routes
            .partition_ops_owned(ops, n)
            .into_iter()
            .map(Some)
            .collect();
        let dones = match self.dispatch(|i, tree, reply| Job::Lane {
            tree,
            ops: lanes[i].take().expect("one lane per shard"),
            reply,
        }) {
            Ok(dones) => dones,
            Err(e) => {
                // A WAL commit failure leaves the engine alive with every
                // lane already applied but no report cut for it: rebaseline
                // so a later mission's report does not double-count this
                // mission's work. (Worker deaths need no rebaseline — the
                // engine is marked dead and no further report can be
                // built.)
                if matches!(e, MissionError::Wal { .. }) {
                    self.collector.baseline_shards(self.shard_snapshots());
                    self.adhoc_scans = 0;
                }
                return Err(e);
            }
        };
        // The commit barrier ran inside the workers, overlapped: the
        // mission's durability latency is the slowest shard's leg, the
        // total sync work the sum of all legs.
        let commit = commit_stats(&dones);
        // Per-shard commit legs, kept for the per-shard reward slices: a
        // shard's tuner must price *its* fsync, not the barrier max.
        let mut legs = vec![0u64; n];
        for d in &dones {
            legs[d.shard] = d.commit.ns;
        }
        let process_ns = t0.elapsed().as_nanos() as u64;
        let (mut report, mut slices) = self
            .collector
            .report_mission_shards_split(self.shard_snapshots(), process_ns);
        report.commit_ns = commit.barrier_ns;
        report.commit_busy_ns = commit.busy_ns;
        // Report the *logical* scan composition (one scan per mission
        // operation, counted at routing time above, plus any ad-hoc
        // `scan()` calls since the last report) so `gamma` is comparable
        // across shard counts. The I/O and latency of the N sub-scans
        // stay in the report — that work really happened. The broadcast
        // invariant pins the physical count exactly; the old
        // `report.scans / n` recovery drifted whenever the physical count
        // was not a multiple of `n`.
        let logical_scans = logical_scans + self.adhoc_scans;
        self.adhoc_scans = 0;
        debug_assert_eq!(
            report.scans,
            logical_scans * n as u64,
            "scan broadcast invariant violated: {} physical scans across {n} shards \
             for {logical_scans} logical scans",
            report.scans,
        );
        if n > 1 {
            report.ops = report.ops - report.scans + logical_scans;
            report.scans = logical_scans;
        }

        match &self.tuning {
            Tuning::Global(_) => {
                let obs = self.observe();
                let Tuning::Global(tuner) = &mut self.tuning else {
                    unreachable!("strategy checked above")
                };
                tune_mission(tuner.as_mut(), &mut report, &obs, |level, k| {
                    for tree in self.shards.iter_mut().flatten() {
                        tree.set_policy(level, k);
                    }
                });
            }
            Tuning::PerShard(_) => {
                // Each shard's tuner sees its own reward slice (that
                // shard's time-domain delta, with *its* commit leg — the
                // slice's physical scan count stays: the shard really ran
                // its broadcast leg) and its own observation, and its
                // policy changes land only on the owning shard. Idle
                // shards are skipped entirely: a zero-op slice carries no
                // signal (the common case under skew), and skipping keeps
                // the shard's agent replay clean instead of feeding it
                // degenerate rewards.
                let obs: Vec<TreeObservation> = (0..n).map(|i| self.observe_shard(i)).collect();
                let Tuning::PerShard(tuners) = &mut self.tuning else {
                    unreachable!("strategy checked above")
                };
                for (i, tuner) in tuners.iter_mut().enumerate() {
                    slices[i].commit_ns = legs[i];
                    slices[i].commit_busy_ns = legs[i];
                    if slices[i].ops == 0 {
                        continue;
                    }
                    let tree = self.shards[i]
                        .as_mut()
                        .expect("every tree is home after dispatch");
                    tune_mission(tuner.as_mut(), &mut slices[i], &obs[i], |level, k| {
                        tree.set_policy(level, k);
                    });
                    report.model_update_ns += slices[i].model_update_ns;
                }
            }
        }
        report.policies_after = self.policies();
        report.shard_policies_after = self.shard_policies();
        self.last_report = Some(report.clone());
        self.maybe_rebalance()?;
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Hot-shard balancing
    // ------------------------------------------------------------------

    /// Arms hot-shard mitigation: from now on the point-op stream feeds
    /// a [`LoadSketch`], and a mission whose recent load is imbalanced
    /// beyond `cfg.imbalance_threshold` re-homes the hottest shard's
    /// heaviest keys to the coldest shard (at most `cfg.max_moves` per
    /// mission). Arming is cheap and reversible; the sketch starts
    /// empty, so mitigation reacts only to load observed *after* this
    /// call.
    pub fn enable_balancing(&mut self, cfg: BalanceConfig) {
        let n = self.shards.len();
        self.balancer = Some(Balancer {
            sketch: LoadSketch::new(n, cfg.capacity),
            cfg,
        });
    }

    /// Disarms hot-shard mitigation. Existing routing overrides remain
    /// in force — the re-homed keys really live on their new shards.
    pub fn disable_balancing(&mut self) {
        self.balancer = None;
    }

    /// Balancing passes that actually migrated keys.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Number of keys currently re-homed away from their hash shard.
    pub fn rehomed_keys(&self) -> usize {
        self.routes.len()
    }

    /// The balancer's current view of recent load imbalance (max shard
    /// ops over mean; 0.0 while balancing is off or nothing was
    /// observed).
    pub fn load_imbalance(&self) -> f64 {
        self.balancer.as_ref().map_or(0.0, |b| b.sketch.imbalance())
    }

    /// One balancing pass, run at each mission boundary while armed.
    ///
    /// Migration is ordered for crash safety on a durable store:
    ///
    /// 1. the routing overrides — including the new moves — are written
    ///    to the routes file *atomically* (tmp + fsync + rename) before
    ///    any data moves; a crash here leaves overrides whose data still
    ///    sits at the hash home, which recovery settles by redoing the
    ///    copy;
    /// 2. each key's value is read from the hot shard and put to its new
    ///    home;
    /// 3. one group-commit barrier makes the copies durable;
    /// 4. only then are the originals tombstoned — so "delete durable
    ///    but copy lost" is impossible even though per-shard WALs sync
    ///    independently.
    ///
    /// Every step is idempotent under re-execution, which is what lets
    /// [`ShardedRusKey::recover`]/[`recover_persistent`](ShardedRusKey::recover_persistent)
    /// settle any half-finished pass from the routes file alone.
    fn maybe_rebalance(&mut self) -> Result<(), MissionError> {
        let n = self.shards.len();
        let Some(bal) = &self.balancer else {
            return Ok(());
        };
        let (threshold, min_ops, max_moves, decay) = (
            bal.cfg.imbalance_threshold,
            bal.cfg.min_ops,
            bal.cfg.max_moves,
            bal.cfg.decay,
        );
        let acting = n >= 2
            && bal.sketch.total_ops() >= min_ops as f64
            && bal.sketch.imbalance() > threshold;
        if !acting {
            if let Some(bal) = &mut self.balancer {
                bal.sketch.decay(decay);
            }
            return Ok(());
        }
        let bal = self.balancer.as_ref().expect("checked above");
        let hot = bal.sketch.hottest_shard();
        let cold = bal.sketch.coldest_shard();
        let candidates = bal.sketch.heavy_hitters();
        let moves: Vec<Bytes> = candidates
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| self.routes.shard_for(k, n) == hot)
            .take(max_moves)
            .collect();
        if let Some(bal) = &mut self.balancer {
            bal.sketch.decay(decay);
        }
        if moves.is_empty() || hot == cold {
            return Ok(());
        }
        // 1. Route first, durably. The reverse order could orphan a
        // migrated key behind a stale route after a crash. Every move's
        // source is `hot` (the filter above pinned the current route),
        // recorded so recovery can find a half-copied value even after
        // a chain of migrations.
        let prior_sources: Vec<Option<usize>> = moves
            .iter()
            .map(|key| self.route_sources.insert(key.clone(), hot))
            .collect();
        for key in &moves {
            self.routes.set(key.clone(), cold);
        }
        let rollback = |this: &mut Self| {
            // Undo the overrides in memory. A chained key (already
            // re-homed before this pass) must fall back to its *previous
            // route* — `hot` — not to hash routing.
            for (key, prior) in moves.iter().zip(&prior_sources) {
                if shard_for_key(key, n) == hot {
                    this.routes.remove(key);
                } else {
                    this.routes.set(key.clone(), hot);
                }
                match prior {
                    Some(s) => {
                        this.route_sources.insert(key.clone(), *s);
                    }
                    None => {
                        this.route_sources.remove(key);
                    }
                }
            }
        };
        if self.persist_routes().is_err() {
            // Could not make the new routes durable: undo them in memory
            // (no data has moved) and skip this pass — mitigation is
            // best-effort, correctness is not at stake.
            rollback(self);
            return Ok(());
        }
        // 2. Copy each key to its new home (a key with no live value —
        // deleted or never written — moves by route alone).
        for key in &moves {
            let v = match self.adhoc_one(hot, AdhocOp::Get(key.clone())) {
                AdhocOut::Value(v) => v,
                _ => unreachable!("get replies with a value"),
            };
            if let Some(v) = v {
                self.adhoc_one(cold, AdhocOp::Put(key.clone(), v));
            }
        }
        // 3. Copies durable before the originals go away.
        if let Err(e) = self.try_group_commit() {
            // The barrier failed (WAL I/O): roll the pass back so reads
            // keep a single live copy — tombstone the copies, restore
            // the previous routes, re-persist. Recovery from the
            // *durable* routes file (which still names the moves)
            // re-runs the migration idempotently, converging on the
            // same state.
            for key in &moves {
                self.adhoc_one(cold, AdhocOp::Delete(key.clone()));
            }
            rollback(self);
            let _ = self.persist_routes();
            return Err(e);
        }
        // 4. Tombstone the originals; the re-homed copies are durable.
        for key in &moves {
            self.adhoc_one(hot, AdhocOp::Delete(key.clone()));
        }
        self.rebalances += 1;
        Ok(())
    }

    /// Writes the routing overrides to the routes file atomically (tmp +
    /// fsync + rename + directory fsync), one `<target> <source> <hex
    /// key>` line per override. No-op for a non-durable store.
    fn persist_routes(&self) -> std::io::Result<()> {
        use std::io::Write as _;
        let Some(path) = &self.routes_path else {
            return Ok(());
        };
        let n = self.shards.len();
        let mut buf = String::new();
        for (key, shard) in self.routes.iter() {
            let source = self
                .route_sources
                .get(key)
                .copied()
                .unwrap_or_else(|| shard_for_key(key, n));
            buf.push_str(&format!("{shard} {source} "));
            for b in key.iter() {
                buf.push_str(&format!("{b:02x}"));
            }
            buf.push('\n');
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(buf.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Settles recovered routing overrides: installs each entry, then
    /// repairs whatever state the crash left the migration in. The
    /// routes file is always written before data moves, so the newest
    /// durable copy is at the first live location in priority order
    /// **target → source → hash home** (once the routes flipped, new
    /// writes went to the target; before the copy landed, the source —
    /// the previous route — held the latest value; a chain whose first
    /// hop never copied still has it at home). The authoritative copy is
    /// moved to the target, then every *other* shard's stale copy —
    /// including intermediates of a migration chain whose tombstones
    /// were not yet durable — is scrubbed. Every step is idempotent.
    fn settle_routes(&mut self, entries: Vec<(Bytes, usize, usize)>) -> Result<(), OpenError> {
        let n = self.shards.len();
        let mut settled = 0u64;
        for (key, target, source) in entries {
            if target >= n || source >= n {
                // A table written by a wider incarnation: unreachable in
                // practice (recovery pins the shard count), but a stale
                // entry must not panic — hash routing stays correct.
                continue;
            }
            let home = shard_for_key(&key, n);
            if home != target {
                self.routes.set(key.clone(), target);
                self.route_sources.insert(key.clone(), source);
            }
            let get = |this: &mut Self, shard: usize| match this
                .adhoc_one(shard, AdhocOp::Get(key.clone()))
            {
                AdhocOut::Value(v) => v,
                _ => unreachable!("get replies with a value"),
            };
            let at_target = get(self, target);
            if at_target.is_none() {
                let rescued = match get(self, source) {
                    Some(v) => Some(v),
                    None if home != source => get(self, home),
                    None => None,
                };
                if let Some(v) = rescued {
                    self.adhoc_one(target, AdhocOp::Put(key.clone(), v));
                    settled += 1;
                }
            }
            // Scrub every non-target copy: the authoritative value now
            // lives at the target (or the key is simply dead).
            for shard in 0..n {
                if shard != target && get(self, shard).is_some() {
                    self.adhoc_one(shard, AdhocOp::Delete(key.clone()));
                    settled += 1;
                }
            }
        }
        if settled > 0 {
            // The repairs must be durable before the store reports
            // recovered — a crash right after recovery must not resurface
            // the half-finished state.
            self.try_group_commit().map_err(|e| match e {
                MissionError::Wal { error, .. } => OpenError::Io(error),
                other => OpenError::Io(std::io::Error::other(other.to_string())),
            })?;
        }
        Ok(())
    }
}

/// File name of the persisted routing-override table, under the
/// durability dir / persistence root. Must not match the `shard-`
/// prefixes the recovery scans parse.
const ROUTES_FILE: &str = "ROUTES";

/// The most common policy among the shards holding a level, ties broken
/// toward the smaller (more leveled, read-safer) K. Deterministic, and
/// the identity whenever all shards agree — i.e. always, under global
/// tuning.
fn modal_policy(held: &[u32]) -> u32 {
    let mut sorted = held.to_vec();
    sorted.sort_unstable();
    let mut best = (1u32, 0usize);
    let mut i = 0;
    while i < sorted.len() {
        let run = sorted[i..].iter().take_while(|&&v| v == sorted[i]).count();
        if run > best.1 {
            best = (sorted[i], run);
        }
        i += run;
    }
    best.0
}

/// Loads the persisted routing overrides (`<target> <source> <hex key>`
/// lines). A missing file is an empty table; the atomic-rename write
/// protocol means the file is never torn, so malformed lines are a
/// corruption signal surfaced as an error rather than skipped silently.
fn load_routes(path: &std::path::Path) -> Result<Vec<(Bytes, usize, usize)>, OpenError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let parse = || -> Option<(Bytes, usize, usize)> {
            let (target, rest) = line.split_once(' ')?;
            let (source, hex) = rest.split_once(' ')?;
            let target = target.parse::<usize>().ok()?;
            let source = source.parse::<usize>().ok()?;
            if !hex.len().is_multiple_of(2) {
                return None;
            }
            let mut key = Vec::with_capacity(hex.len() / 2);
            for i in (0..hex.len()).step_by(2) {
                key.push(u8::from_str_radix(&hex[i..i + 2], 16).ok()?);
            }
            Some((Bytes::from(key), target, source))
        };
        match parse() {
            Some(entry) => out.push(entry),
            None => {
                return Err(OpenError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt routes file {}: bad line {line:?}", path.display()),
                )))
            }
        }
    }
    Ok(out)
}

/// Lets a tuner act on a finished mission: runs it on the report and
/// observation, applies its `(level, K)` changes through `apply`, and
/// records the model-update time on the report. The global and per-shard
/// strategies share it so their tuning bookkeeping cannot diverge.
fn tune_mission(
    tuner: &mut dyn Tuner,
    report: &mut MissionReport,
    obs: &TreeObservation,
    mut apply: impl FnMut(usize, u32),
) {
    let model_before = tuner.model_update_ns();
    let changes = tuner.tune(report, obs);
    for (level, k) in changes {
        apply(level, k);
    }
    report.model_update_ns = tuner.model_update_ns().saturating_sub(model_before);
}

/// Folds per-shard commit legs into the barrier composition: latency is
/// the max (the legs ran concurrently), work the sum.
fn commit_stats(dones: &[ShardDone]) -> CommitStats {
    CommitStats {
        barrier_ns: dones.iter().map(|d| d.commit.ns).max().unwrap_or(0),
        busy_ns: dones.iter().map(|d| d.commit.ns).sum(),
        syncs: dones.iter().filter(|d| d.commit.synced).count() as u64,
    }
}

/// One head of the k-way scan merge; ordered so the smallest key wins.
struct MergeHead {
    key: Bytes,
    shard: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for MergeHead {}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other.key.cmp(&self.key)
    }
}

/// K-way merges per-shard scan results (each sorted, keys disjoint across
/// shards) into one sorted result of at most `limit` entries.
/// `pub(crate)`: the serving frontend's broadcast scans merge through the
/// same code path.
pub(crate) fn merge_sorted_scans(
    per_shard: Vec<Vec<(Bytes, Bytes)>>,
    limit: usize,
) -> Vec<(Bytes, Bytes)> {
    let mut iters: Vec<std::vec::IntoIter<(Bytes, Bytes)>> =
        per_shard.into_iter().map(Vec::into_iter).collect();
    let mut heap = BinaryHeap::with_capacity(iters.len());
    let mut values: Vec<Option<Bytes>> = vec![None; iters.len()];
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some((k, v)) = it.next() {
            heap.push(MergeHead { key: k, shard: i });
            values[i] = Some(v);
        }
    }
    let mut out = Vec::new();
    while out.len() < limit {
        let Some(MergeHead { key, shard }) = heap.pop() else {
            break;
        };
        let value = values[shard].take().expect("merge head without value");
        out.push((key, value));
        if let Some((k, v)) = iters[shard].next() {
            heap.push(MergeHead { key: k, shard });
            values[shard] = Some(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::FixedPolicy;
    use ruskey_storage::{CostModel, SimulatedDisk};
    use ruskey_workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};

    fn small_cfg() -> RusKeyConfig {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        cfg.lsm.size_ratio = 4;
        cfg
    }

    fn disk() -> Arc<SimulatedDisk> {
        SimulatedDisk::new(512, CostModel::NVME)
    }

    #[test]
    fn kv_roundtrip_across_shards() {
        let mut db = ShardedRusKey::untuned(small_cfg(), 4, disk());
        for i in 0..200u64 {
            db.put(ruskey_workload::encode_key(i, 16), vec![i as u8; 8]);
        }
        for i in 0..200u64 {
            let got = db.get(&ruskey_workload::encode_key(i, 16));
            assert_eq!(got.as_deref(), Some(vec![i as u8; 8].as_slice()), "key {i}");
        }
        db.delete(ruskey_workload::encode_key(7, 16));
        assert_eq!(db.get(&ruskey_workload::encode_key(7, 16)), None);
        let all = db.scan(&[0u8], &[0xffu8], 1000);
        assert_eq!(all.len(), 199, "the delete is visible to scans");
    }

    #[test]
    fn cross_shard_scan_is_globally_sorted_and_limited() {
        let mut db = ShardedRusKey::untuned(small_cfg(), 4, disk());
        for i in 0..300u64 {
            db.put(ruskey_workload::encode_key(i, 16), vec![1u8; 8]);
        }
        let all = db.scan(
            &ruskey_workload::encode_key(50, 16),
            &ruskey_workload::encode_key(150, 16),
            1000,
        );
        assert_eq!(all.len(), 100);
        for (w, pair) in all.windows(2).zip(all.iter().skip(1)) {
            assert!(w[0].0 < pair.0, "scan out of order");
        }
        let limited = db.scan(
            &ruskey_workload::encode_key(50, 16),
            &ruskey_workload::encode_key(150, 16),
            7,
        );
        assert_eq!(limited.len(), 7);
        assert_eq!(limited[..], all[..7]);
    }

    #[test]
    fn mission_reports_aggregate_all_shards() {
        let mut db = ShardedRusKey::try_with_tuner(
            small_cfg(),
            4,
            disk(),
            Box::new(FixedPolicy::moderate()),
        )
        .unwrap();
        db.bulk_load(bulk_load_pairs(1000, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 1000,
            value_len: 48,
            ..WorkloadSpec::scaled_default(1000)
        }
        .with_mix(OpMix::read_heavy());
        let mut g = OpGenerator::new(spec, 2);
        let r = db.run_mission(&g.take_ops(400));
        assert_eq!(r.ops, 400, "aggregated op count covers every shard");
        assert!((r.gamma() - 0.9).abs() < 0.08);
        assert!(r.end_to_end_ns > 0);
        assert!(!r.policies_after.is_empty());
        assert_eq!(db.last_parallelism(), 4, "one worker thread per shard");
        assert_eq!(db.last_worker_threads().len(), 4);
    }

    /// A fixed tuner's policy lands on every level of every shard in the
    /// very first mission.
    #[test]
    fn policy_fanout_reaches_every_shard() {
        let mut db =
            ShardedRusKey::try_with_tuner(small_cfg(), 3, disk(), Box::new(FixedPolicy::new(4)))
                .unwrap();
        db.bulk_load(bulk_load_pairs(900, 16, 48, 3));
        let spec = WorkloadSpec {
            key_space: 900,
            value_len: 48,
            ..WorkloadSpec::scaled_default(900)
        };
        let mut g = OpGenerator::new(spec, 5);
        let r = db.run_mission(&g.take_ops(300));
        assert!(
            r.policies_after.iter().all(|&k| k == 4),
            "{:?}",
            r.policies_after
        );
        for s in 0..db.shard_count() {
            let tree = db.shard(s);
            for lvl in 0..tree.level_count() {
                assert_eq!(
                    tree.policy(lvl),
                    4,
                    "shard {s} level {lvl} missed the fan-out"
                );
            }
        }
    }

    /// Ad-hoc scans between missions broadcast to every shard; the next
    /// mission's report must still count each of them logically once and
    /// keep the broadcast invariant (no debug panic, no drift).
    #[test]
    fn adhoc_scans_between_missions_stay_logically_counted() {
        for shards in [1usize, 3] {
            let mut db = ShardedRusKey::untuned(small_cfg(), shards, disk());
            db.bulk_load(bulk_load_pairs(600, 16, 48, 9));
            let spec = WorkloadSpec {
                key_space: 600,
                value_len: 48,
                ..WorkloadSpec::scaled_default(600)
            }
            .with_mix(OpMix {
                lookup: 0.5,
                update: 0.35,
                delete: 0.05,
                scan: 0.1,
            });
            let mut g = OpGenerator::new(spec, 4);
            db.run_mission(&g.take_ops(200));
            // Two ad-hoc scans outside any mission.
            let lo = ruskey_workload::encode_key(0, 16);
            let hi = ruskey_workload::encode_key(600, 16);
            db.scan(&lo, &hi, 10);
            db.scan(&lo, &hi, 10);
            let ops = g.take_ops(200);
            let mission_scans = ops
                .iter()
                .filter(|o| matches!(o, ruskey_workload::Operation::Scan { .. }))
                .count() as u64;
            let r = db.run_mission(&ops);
            assert_eq!(
                r.scans,
                mission_scans + 2,
                "{shards} shards: ad-hoc scans count logically once each"
            );
            assert_eq!(r.ops, 200 + 2);
        }
    }

    #[test]
    fn try_with_tuner_rejects_bad_config() {
        let mut cfg = small_cfg();
        cfg.lsm.size_ratio = 1;
        let err = ShardedRusKey::try_with_tuner(cfg, 2, disk(), Box::new(NoOpTuner));
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedRusKey::untuned(small_cfg(), 0, disk());
    }

    /// An injected worker panic surfaces as a clean [`MissionError`] on
    /// the next dispatch — and the engine stays dead (no limping on with
    /// a missing shard), while dropping the store does not hang.
    #[test]
    fn worker_panic_is_a_clean_error_and_kills_the_engine() {
        let mut db = ShardedRusKey::untuned(small_cfg(), 3, disk());
        db.bulk_load(bulk_load_pairs(300, 16, 48, 5));
        let spec = WorkloadSpec {
            key_space: 300,
            value_len: 48,
            ..WorkloadSpec::scaled_default(300)
        };
        let mut g = OpGenerator::new(spec, 6);
        assert!(db.try_run_mission(&g.take_ops(100)).is_ok());
        db.inject_worker_panic(1);
        let err = db
            .try_run_mission(&g.take_ops(100))
            .expect_err("a dead worker must fail the mission");
        assert!(
            matches!(
                err,
                MissionError::WorkerPanicked { shard: 1 }
                    | MissionError::WorkerUnavailable { shard: 1 }
            ),
            "unexpected error: {err}"
        );
        // Every later dispatch reports the dead worker too.
        let err2 = db
            .try_run_mission(&g.take_ops(50))
            .expect_err("the engine must stay dead");
        assert!(err2.to_string().contains("shard 1"), "{err2}");
    }

    /// The full-store persistence path at the store level: flushed runs
    /// and the WAL tail survive a drop + recover, and recovery counters
    /// flow into the next mission's report.
    #[test]
    fn persistent_store_survives_restart() {
        let root = std::env::temp_dir().join(format!(
            "ruskey-sharded-persist-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut pcfg = PersistenceConfig::new(&root);
        pcfg.page_size = 512;
        pcfg.cost = CostModel::FREE;
        let mut cfg = small_cfg();
        cfg.lsm.buffer_bytes = 2048; // force flushes: runs must hit disk
        let mut db =
            ShardedRusKey::try_with_tuner_persistent(cfg.clone(), 2, Box::new(NoOpTuner), &pcfg)
                .expect("open persistent store");
        for i in 0..300u64 {
            db.put(ruskey_workload::encode_key(i, 16), vec![i as u8; 24]);
        }
        db.delete(ruskey_workload::encode_key(5, 16));
        db.group_commit();
        let flushes = db.stats().flushes;
        assert!(flushes > 0, "scenario must flush runs to disk");
        drop(db);

        let mut rec = ShardedRusKey::recover_persistent(cfg.clone(), 2, Box::new(NoOpTuner), &pcfg)
            .expect("recover persistent store");
        let s = rec.stats();
        assert!(s.runs_recovered > 0, "flushed runs must be rebuilt");
        assert!(s.manifest_edits > 0);
        for i in 0..300u64 {
            let got = rec.get(&ruskey_workload::encode_key(i, 16));
            if i == 5 {
                assert_eq!(got, None, "tombstone lost across restart");
            } else {
                assert_eq!(
                    got.as_deref(),
                    Some(vec![i as u8; 24].as_slice()),
                    "key {i}"
                );
            }
        }
        // Recovery counters surface through the next mission's report.
        let spec = WorkloadSpec {
            key_space: 300,
            value_len: 24,
            ..WorkloadSpec::scaled_default(300)
        };
        let mut g = OpGenerator::new(spec, 3);
        let r = rec.run_mission(&g.take_ops(100));
        assert_eq!(r.runs_recovered, s.runs_recovered);
        assert!(r.manifest_edits >= s.manifest_edits);
        // Wrong shard counts are refused in *both* directions: fewer
        // would drop acknowledged writes, more would misroute keys and
        // hide durable data behind empty shards.
        drop(rec);
        let err = ShardedRusKey::recover_persistent(cfg.clone(), 1, Box::new(NoOpTuner), &pcfg)
            .err()
            .expect("recovering fewer shards than described must fail");
        assert!(err.to_string().contains("2 shards"), "{err}");
        let err = ShardedRusKey::recover_persistent(cfg, 4, Box::new(NoOpTuner), &pcfg)
            .err()
            .expect("recovering more shards than described must fail");
        assert!(err.to_string().contains("2 shards"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A fresh persistent store wipes the *whole* previous incarnation:
    /// shard directories beyond the new count must not survive, or every
    /// later recovery would refuse the store as a shard-count mismatch.
    #[test]
    fn fresh_persistent_store_wipes_a_wider_previous_incarnation() {
        let root = std::env::temp_dir().join(format!(
            "ruskey-sharded-rewipe-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut pcfg = PersistenceConfig::new(&root);
        pcfg.page_size = 512;
        pcfg.cost = CostModel::FREE;
        {
            let mut wide = ShardedRusKey::try_with_tuner_persistent(
                small_cfg(),
                4,
                Box::new(NoOpTuner),
                &pcfg,
            )
            .expect("open 4-shard store");
            wide.put(ruskey_workload::encode_key(1, 16), vec![1u8; 8]);
            wide.group_commit();
        }
        {
            let mut narrow = ShardedRusKey::try_with_tuner_persistent(
                small_cfg(),
                2,
                Box::new(NoOpTuner),
                &pcfg,
            )
            .expect("open 2-shard store over the old root");
            narrow.put(ruskey_workload::encode_key(2, 16), vec![2u8; 8]);
            narrow.group_commit();
        }
        let mut rec = ShardedRusKey::recover_persistent(small_cfg(), 2, Box::new(NoOpTuner), &pcfg)
            .expect("a stale wider incarnation must not block recovery");
        assert_eq!(
            rec.get(&ruskey_workload::encode_key(2, 16)).as_deref(),
            Some(vec![2u8; 8].as_slice())
        );
        assert_eq!(
            rec.get(&ruskey_workload::encode_key(1, 16)),
            None,
            "the old incarnation's data must be gone"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_handles_empty_and_interleaved_inputs() {
        let k = |i: u64| Bytes::copy_from_slice(&i.to_be_bytes());
        let v = Bytes::from_static(b"v");
        let merged = merge_sorted_scans(
            vec![
                vec![(k(1), v.clone()), (k(5), v.clone())],
                vec![],
                vec![(k(2), v.clone()), (k(3), v.clone()), (k(9), v.clone())],
            ],
            10,
        );
        let keys: Vec<u64> = merged
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 9]);
        assert!(merge_sorted_scans(vec![], 5).is_empty());
    }
}
