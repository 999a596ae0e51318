//! Store configuration: the FLSM-tree settings plus the Lerp tuner's.

use ruskey_lsm::{BloomScheme, LsmConfig, TransitionStrategy};

use crate::lerp::{LerpConfig, PropagationScheme};

/// Configuration of a [`ShardedRusKey`](crate::sharded::ShardedRusKey)
/// store; every shard's tree is built from the same `lsm` settings.
#[derive(Debug, Clone, PartialEq)]
pub struct RusKeyConfig {
    /// The underlying FLSM-tree configuration.
    pub lsm: LsmConfig,
    /// Lerp configuration (read by
    /// [`ShardedRusKey::try_with_per_shard_lerp`](crate::sharded::ShardedRusKey::try_with_per_shard_lerp)
    /// and by callers that build a [`Lerp`](crate::lerp::Lerp) tuner).
    pub lerp: LerpConfig,
}

impl RusKeyConfig {
    /// Scaled-down defaults matching the experiment setup (DESIGN.md §2);
    /// uniform Bloom scheme.
    pub fn scaled_default() -> Self {
        Self {
            lsm: LsmConfig::scaled_default(),
            lerp: LerpConfig::paper_default(PropagationScheme::Uniform),
        }
    }

    /// Scaled defaults under the Monkey scheme (Fig. 8/9 experiments). The
    /// level-1 FPR is chosen so Monkey's total filter memory roughly matches
    /// the uniform scheme's 8 bits/key over a 4-level tree, mirroring the
    /// paper's bits-per-key adjustment (§7 "Implementation").
    pub fn scaled_monkey() -> Self {
        let mut cfg = Self::scaled_default();
        cfg.lsm.bloom = BloomScheme::Monkey { level1_fpr: 1e-4 };
        cfg.lerp = LerpConfig::paper_default(PropagationScheme::Monkey);
        cfg
    }

    /// Sets the transition strategy.
    pub fn with_transition(mut self, t: TransitionStrategy) -> Self {
        self.lsm.transition = t;
        self
    }
}

/// The paper's single-tree store is [`ShardedRusKey`](crate::sharded::ShardedRusKey)
/// at `N = 1`; these tests pin its behaviour there.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::lerp::Lerp;
    use crate::sharded::ShardedRusKey;
    use crate::tuner::{FixedPolicy, Tuner};
    use ruskey_storage::{CostModel, SimulatedDisk};
    use ruskey_workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};
    use std::sync::Arc;

    fn small_cfg() -> RusKeyConfig {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        cfg.lsm.size_ratio = 4;
        cfg
    }

    fn disk() -> Arc<SimulatedDisk> {
        SimulatedDisk::new(512, CostModel::NVME)
    }

    fn with_tuner(tuner: Box<dyn Tuner>) -> ShardedRusKey {
        ShardedRusKey::try_with_tuner(small_cfg(), 1, disk(), tuner).unwrap()
    }

    fn with_lerp() -> ShardedRusKey {
        with_tuner(Box::new(Lerp::new(small_cfg().lerp)))
    }

    #[test]
    fn try_constructors_reject_invalid_configs() {
        let mut cfg = small_cfg();
        cfg.lsm.size_ratio = 1;
        assert!(ShardedRusKey::try_with_per_shard_lerp(cfg.clone(), 1, disk()).is_err());
        let err = ShardedRusKey::try_with_tuner(cfg, 1, disk(), Box::new(FixedPolicy::moderate()))
            .err()
            .expect("must reject T < 2");
        assert!(err.to_string().contains("size_ratio"));
        // Valid configs still construct.
        assert!(ShardedRusKey::try_with_per_shard_lerp(small_cfg(), 1, disk()).is_ok());
    }

    #[test]
    fn kv_roundtrip() {
        let mut db = with_lerp();
        db.put(&b"alpha"[..], &b"1"[..]);
        db.put(&b"beta"[..], &b"2"[..]);
        assert_eq!(db.get(b"alpha").as_deref(), Some(&b"1"[..]));
        db.delete(&b"alpha"[..]);
        assert_eq!(db.get(b"alpha"), None);
        assert_eq!(db.scan(b"a", b"z", 10).len(), 1);
    }

    #[test]
    fn missions_report_composition_and_latency() {
        let mut db = with_tuner(Box::new(FixedPolicy::moderate()));
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 500,
            value_len: 48,
            ..WorkloadSpec::scaled_default(500)
        }
        .with_mix(OpMix::read_heavy());
        let mut g = OpGenerator::new(spec, 2);
        for i in 0..3 {
            let ops = g.take_ops(200);
            let r = db.run_mission(&ops);
            assert_eq!(r.ops, 200, "mission {i}");
            assert!((r.gamma() - 0.9).abs() < 0.08, "gamma {}", r.gamma());
            assert!(r.end_to_end_ns > 0);
            assert!(!r.policies_after.is_empty());
        }
    }

    #[test]
    fn fixed_tuner_applies_policy_in_first_mission() {
        let mut db = with_tuner(Box::new(FixedPolicy::new(4)));
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 500,
            value_len: 48,
            ..WorkloadSpec::scaled_default(500)
        };
        let mut g = OpGenerator::new(spec, 2);
        let r = db.run_mission(&g.take_ops(100));
        assert!(
            r.policies_after.iter().all(|&k| k == 4),
            "{:?}",
            r.policies_after
        );
    }

    #[test]
    fn bulk_load_excluded_from_first_mission() {
        let mut db = ShardedRusKey::untuned(small_cfg(), 1, disk());
        db.bulk_load(bulk_load_pairs(2000, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 2000,
            value_len: 48,
            ..WorkloadSpec::scaled_default(2000)
        }
        .with_mix(OpMix::reads(1.0));
        let mut g = OpGenerator::new(spec, 2);
        let r = db.run_mission(&g.take_ops(50));
        // 50 pure lookups: a tiny latency compared to loading 2000 entries.
        assert_eq!(r.ops, 50);
        assert_eq!(r.updates, 0);
        assert!(
            r.end_to_end_ns < 50 * 1_000_000,
            "bulk load leaked into mission"
        );
    }

    #[test]
    fn lerp_store_tracks_model_time() {
        let mut db = with_lerp();
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 500,
            value_len: 48,
            ..WorkloadSpec::scaled_default(500)
        };
        let mut g = OpGenerator::new(spec, 2);
        let mut total_model = 0;
        for _ in 0..3 {
            let r = db.run_mission(&g.take_ops(100));
            total_model += r.model_update_ns;
        }
        assert!(total_model > 0);
        assert!(db.model_update_ns() > 0);
        assert_eq!(db.tuner_name(), "ruskey-lerp");
    }
}
