//! **RusKey** — an RL-tuned LSM-tree key-value store for dynamic workloads,
//! with a sharded engine core for multi-core scaling.
//!
//! Reproduction of *"Learning to Optimize LSM-trees: Towards A Reinforcement
//! Learning based Key-Value Store for Dynamic Workloads"* (Mo, Chen, Luo,
//! Shan; SIGMOD 2023, arXiv:2308.07013), grown toward a production-scale
//! store.
//!
//! # Architecture
//!
//! The engine core is **sharded**: [`sharded::ShardedRusKey`] hash-partitions
//! the key space onto `N` independent [FLSM-trees](ruskey_lsm::FlsmTree)
//! (each with its own memtable and levels) sharing one storage device.
//! Missions execute in parallel on the store's persistent **worker pool** —
//! one long-lived OS thread per shard — with operations routed by the stable
//! key hash of [`ruskey_workload::routing`]; cross-shard range scans are
//! k-way merged. Tuning follows the store's
//! [`TunerStrategy`](sharded::TunerStrategy):
//!
//! * `Global` (the default) works exactly as in the paper: per-shard
//!   statistics merge into one store-wide [`ruskey_lsm::TreeStatsSnapshot`],
//!   from which the [`stats`] collector builds the mission's
//!   [`MissionReport`]; a single tuner observes the aggregated report and
//!   tree structure; its per-level policy changes fan out to every shard,
//!   applied via the configured flexible transition (§4);
//! * `PerShard` gives every shard its own tuner, fed by that shard's exact
//!   reward slice and observation, so policies may diverge under skew; at
//!   `N = 1` it is the global loop.
//!
//! Accounting under parallelism is exact: every shard runs on its own
//! **time domain** (a [`ruskey_storage::ShardStorage`] view with a private
//! clock and metrics over the shared device), so per-level
//! `lookup_ns`/`compact_ns` never absorb a concurrent sibling's charges.
//! Domains compose at the store level as the mission's **wall time** (max
//! over shards, [`stats::MissionReport::end_to_end_ns`]) and the
//! **device-busy time** (sum over shards,
//! [`stats::MissionReport::device_busy_ns`]).
//!
//! There is one engine. The paper's single-tree store is the `N = 1`
//! `ShardedRusKey`, and every paper experiment ([`runner`]) runs on it. Its
//! mission counters equal those of a bare FLSM-tree driven through the
//! paper's mission loop, and an `N`-shard store returns the same get/scan
//! results for the same operation sequence; the integration suite asserts
//! both property-style.
//!
//! Two tuning models matter:
//!
//! * [`lerp::Lerp`] — the paper's level-based DDPG model with policy
//!   propagation (§5): it learns Level 1 (and Level 2 under the Monkey
//!   scheme), then extends the learned policy to all deeper levels
//!   analytically (Lemma 5.1);
//! * the baseline [`tuner::Tuner`]s — fixed policies (Aggressive/Moderate/
//!   Lazy), Dostoevsky's Lazy-Leveling, greedy threshold heuristics
//!   (Fig. 12), and brute-force RL variants (§7) for comparison.
//!
//! ```
//! use ruskey::db::RusKeyConfig;
//! use ruskey::lerp::Lerp;
//! use ruskey::sharded::ShardedRusKey;
//! use ruskey_storage::{CostModel, SimulatedDisk};
//!
//! // The paper's single-tree store, tuned by Lerp…
//! let cfg = RusKeyConfig::scaled_default();
//! let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
//! let disk = SimulatedDisk::new(4096, CostModel::NVME);
//! let mut db = ShardedRusKey::try_with_tuner(cfg, 1, disk, lerp).unwrap();
//! db.put(&b"k"[..], &b"v"[..]);
//! assert_eq!(db.get(b"k").as_deref(), Some(&b"v"[..]));
//!
//! // …and the same engine hash-partitioned across four shards, one Lerp
//! // agent per shard.
//! let disk = SimulatedDisk::new(4096, CostModel::NVME);
//! let mut db =
//!     ShardedRusKey::try_with_per_shard_lerp(RusKeyConfig::scaled_default(), 4, disk).unwrap();
//! db.put(&b"k"[..], &b"v"[..]);
//! assert_eq!(db.get(b"k").as_deref(), Some(&b"v"[..]));
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod dqn_lerp;
pub mod frontend;
pub mod lerp;
pub mod runner;
pub mod sharded;
pub mod state;
pub mod stats;
pub mod tuner;

pub use db::RusKeyConfig;
pub use dqn_lerp::DqnLerp;
pub use frontend::{MetricsSnapshot, ServingClient, ServingConfig, ServingError, ServingFrontend};
pub use lerp::{Lerp, LerpConfig};
pub use sharded::{DurabilityConfig, OpenError, ShardedRusKey};
pub use stats::{LevelMissionStats, MissionReport, StatsCollector};
pub use tuner::{
    BruteForceLerp, FixedPolicy, GreedyHeuristic, LazyLeveling, NoOpTuner, PerLevelNoPropagation,
    TreeObservation, Tuner,
};
