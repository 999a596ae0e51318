//! `dynamic_tuned`: the paper's Fig. 7 schedule (read-heavy → balanced →
//! write-heavy → write-inclined → read-inclined) of 1000-op missions
//! through `run_mission` on one shard, with the global Lerp tuner, inline
//! compaction and a block cache about 1/8 of the data.

use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruskey::db::RusKeyConfig;
use ruskey::lerp::Lerp;
use ruskey_workload::generator::decode_key;
use ruskey_workload::{encode_key, DynamicWorkload, OpGenerator, Operation, WorkloadSpec};

use crate::pct::Sample;
use crate::report::{self, Report};
use crate::stack::{self, initial_value, StackSpec, Window, KEY_LEN, VALUE_LEN};
use crate::trace::{self, Kind};
use crate::{Args, Setup};

/// Workload size; the mission count follows from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Dynamic {
    pub keys: u64,
    pub mission_size: usize,
    /// Missions per session per second of `--seconds`, in each
    /// repetition.
    pub missions_per_second: f64,
    /// Independent stores, each run through the whole schedule on inputs
    /// of its own; the run pools them. One tuned store's outcome depends
    /// on where its exploration happened to lead.
    pub repeats: u64,
    /// Point reads timed after each schedule (`client.get_*`).
    pub point_gets: usize,
}

pub const DYNAMIC_TUNED: Dynamic = Dynamic {
    keys: 20_000,
    mission_size: 1000,
    missions_per_second: 0.75,
    repeats: 6,
    point_gets: 1000,
};

/// The tuner's own seed: program configuration, not workload input.
const LERP_SEED: u64 = 7;

/// Everything one repetition measured.
#[derive(Default)]
struct Rep {
    mission_ns: Vec<u64>,
    get_ns: Vec<u64>,
    /// Live device bytes after each mission.
    live: Vec<u64>,
    live_user_bytes: f64,
    user_bytes_written: u64,
    ops: u64,
    attempted: u64,
    virtual_ns: u64,
    model_ns: u64,
    unconverged: u64,
    changes: u64,
    wall_s: f64,
    win: Window,
}

pub fn run(w: &Dynamic, args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setup = Setup::default();
    let mut all = Rep::default();
    for rep in 0..w.repeats {
        let seed = args.seed.wrapping_mul(w.repeats).wrapping_add(rep);
        let one = schedule(w, args, seed, &mut setup, &mut r)?;
        all.mission_ns.extend(one.mission_ns);
        all.get_ns.extend(one.get_ns);
        all.live.extend(one.live);
        all.live_user_bytes = one.live_user_bytes;
        all.user_bytes_written += one.user_bytes_written;
        all.ops += one.ops;
        all.attempted += one.attempted;
        all.virtual_ns += one.virtual_ns;
        all.model_ns += one.model_ns;
        all.unconverged += one.unconverged;
        all.changes += one.changes;
        all.wall_s += one.wall_s;
        all.win.absorb(&one.win);
    }
    r.attempted = all.attempted;
    let (spans, dropped) = trace::drain();

    let missions = Sample::new(all.mission_ns);
    let gets = Sample::new(all.get_ns);
    r.put(
        "virtual_ns_per_op",
        all.virtual_ns as f64 / all.ops.max(1) as f64,
        "ns",
    );
    setup.report(&mut r);
    r.put(
        "space_amp",
        stack::mean(&all.live) / all.live_user_bytes,
        "ratio",
    );
    r.put(
        "write_amp",
        all.win.device_bytes_written as f64 / all.user_bytes_written.max(1) as f64,
        "ratio",
    );
    r.put(
        "client.throughput_ops_s",
        all.ops as f64 / all.wall_s,
        "1/s",
    );
    r.pct("client.get_p50_us", &gets, 0.5, 1e3, "us");
    r.pct("client.get_p99_us", &gets, 0.99, 1e3, "us");
    for name in ["put", "scan"] {
        r.pct(
            &format!("client.{name}_p50_us"),
            &Sample::default(),
            0.5,
            1e3,
            "us",
        );
        r.pct(
            &format!("client.{name}_p99_us"),
            &Sample::default(),
            0.99,
            1e3,
            "us",
        );
    }
    report::missions(&mut r, &missions);
    r.put(
        "process.cpu_us_per_op",
        all.win.cpu_us_per_op(all.ops),
        "us",
    );
    r.put("host.steal_pct", all.win.steal_pct(), "%");

    let tune = Sample::new(
        spans
            .iter()
            .flatten()
            .filter(|s| s.kind == Kind::Tune)
            .map(|s| s.dur_ns)
            .collect(),
    );
    report::frontend(&mut r, None, 0.0);
    report::sharded(&mut r, &Sample::new(report::mission_self_ns(&spans)));
    report::tuner(
        &mut r,
        &tune,
        tune.sum() as f64 / 1e9 / all.wall_s,
        all.model_ns as f64 / 1e6,
        all.unconverged,
        all.changes,
    );
    report::lsm(&mut r, &all.win);
    report::storage(&mut r, &spans, &all.win);
    r.put("trace.dropped_spans", dropped as f64, "count");
    if args.trace {
        crate::dump_spans(args, &spans);
    }
    Ok(r)
}

/// Opens and loads a fresh store, runs the whole schedule on inputs drawn
/// from `seed`, and checks the store against the shadow model.
fn schedule(
    w: &Dynamic,
    args: &Args,
    seed: u64,
    setup: &mut Setup,
    r: &mut Report,
) -> Result<Rep, String> {
    let pool = stack::value_pool(seed);
    let open = || -> Result<(stack::Stack, u64), String> {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lerp.seed = LERP_SEED;
        let tuner = Box::new(Lerp::new(cfg.lerp.clone()));
        let spec = StackSpec {
            cfg,
            shards: 1,
            cache_pages: (stack::data_pages(w.keys) / 8).max(8),
            traced: args.trace,
        };
        let mut st = stack::open(&args.data, spec, tuner)?;
        stack::bulk_load(&mut st.store, w.keys, seed, &pool);
        let wrong = stack::sweep(&mut st.store, w.keys, |id| {
            Some(pool[initial_value(seed, id) as usize].clone())
        });
        Ok((st, wrong))
    };
    let (mut st, load_wrong) = setup.repeat(args.setups, open)?;
    r.wrong += load_wrong;

    // Inputs, all generated before the timed window.
    let per_session = ((args.seconds as f64 * w.missions_per_second).round() as usize).max(1);
    let gen = OpGenerator::new(WorkloadSpec::scaled_default(w.keys), seed.wrapping_add(1));
    let mut plan = DynamicWorkload::paper_fig7(gen, per_session, w.mission_size);
    let mut missions: Vec<Vec<Operation>> = Vec::with_capacity(plan.total_missions());
    while let Some((_, ops)) = plan.next_mission() {
        missions.push(ops);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let get_ids: Vec<u64> = (0..w.point_gets)
        .map(|_| rng.gen_range(0..w.keys))
        .collect();

    let mut out = Rep {
        mission_ns: Vec::with_capacity(missions.len()),
        live: Vec::with_capacity(missions.len()),
        ..Rep::default()
    };
    let mut policies = st.store.policies();
    let mut policy_trace = String::new();
    let before = st.counters();
    trace::start();
    let t0 = Instant::now();
    for ops in &missions {
        let m0 = Instant::now();
        let res = trace::span(Kind::Mission, || st.store.try_run_mission(ops));
        out.mission_ns.push(m0.elapsed().as_nanos() as u64);
        // Space in use after every mission: the end state alone depends
        // on whether a merge just finished.
        out.live.push(st.live_bytes());
        let report = match res {
            Ok(report) => report,
            Err(e) => {
                r.failed += ops.len() as u64;
                r.notes.push(format!("mission failed: {e}"));
                continue;
            }
        };
        out.ops += report.ops;
        out.virtual_ns += report.end_to_end_ns;
        out.model_ns += report.model_update_ns;
        out.unconverged += u64::from(!st.store.tuner_converged());
        let now = &report.policies_after;
        out.changes += (0..now.len().max(policies.len()))
            .filter(|&i| now.get(i) != policies.get(i))
            .count() as u64;
        policy_trace.push_str(&format!("{now:?}"));
        policies = now.clone();
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    trace::stop();
    out.win = st.counters().since(&before);
    out.attempted = missions.iter().map(|m| m.len() as u64).sum();

    // The shadow model: bulk load, then every mission's writes in order.
    let mut model: Vec<Option<Bytes>> = (0..w.keys)
        .map(|id| Some(pool[initial_value(seed, id) as usize].clone()))
        .collect();
    for op in missions.iter().flatten() {
        match op {
            Operation::Put { key, value } => {
                out.user_bytes_written += (KEY_LEN + VALUE_LEN) as u64;
                model[decode_key(key) as usize] = Some(value.clone());
            }
            Operation::Delete { key } => model[decode_key(key) as usize] = None,
            _ => {}
        }
    }

    // Point reads on the tuned store, checked against the model.
    out.get_ns.reserve(get_ids.len());
    for &id in &get_ids {
        let key = encode_key(id, KEY_LEN);
        let g0 = Instant::now();
        let got = st.store.get(&key);
        out.get_ns.push(g0.elapsed().as_nanos() as u64);
        r.wrong += u64::from(got != model[id as usize]);
    }
    r.wrong += stack::sweep(&mut st.store, w.keys, |id| model[id as usize].clone());
    out.attempted += get_ids.len() as u64;
    out.live_user_bytes = model.iter().flatten().count() as f64 * (KEY_LEN + VALUE_LEN) as f64;

    r.fingerprint.push_str(&format!(
        "[{seed}: virtual_ns={} unconverged={} changes={} policies={:016x}] ",
        out.virtual_ns,
        out.unconverged,
        out.changes,
        fnv(policy_trace.as_bytes())
    ));
    Ok(out)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(traced: bool) -> Report {
        let w = Dynamic {
            keys: 3000,
            mission_size: 300,
            missions_per_second: 4.0,
            repeats: 2,
            point_gets: 50,
        };
        let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_data")
            .join(format!("identity-test-{}-{traced}", std::process::id()));
        let args = Args {
            workload: "dynamic_tuned".into(),
            seed: 5,
            seconds: 1,
            trace: traced,
            setups: 1,
            data: data.clone(),
            spans: None,
        };
        if traced {
            trace::install(1 << 20);
        }
        let r = run(&w, &args).expect("small dynamic run");
        let _ = std::fs::remove_dir_all(&data);
        r
    }

    fn figure(r: &Report, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no {name}"))
            .value
    }

    #[test]
    fn traced_and_untraced_runs_agree_exactly() {
        let plain = small_run(false);
        let traced = small_run(true);
        assert_eq!(plain.wrong + traced.wrong, 0, "shadow model disagreed");
        // Virtual time, the policy trace and every lsm.* count.
        assert_eq!(plain.fingerprint, traced.fingerprint);
        assert!(plain.fingerprint.contains("policies="));
        for m in plain.metrics.iter().filter(|m| m.name.starts_with("lsm.")) {
            assert_eq!(m.value, figure(&traced, &m.name), "{} differs", m.name);
        }
        assert_eq!(
            figure(&plain, "virtual_ns_per_op"),
            figure(&traced, "virtual_ns_per_op")
        );
        // The wrappers saw the work.
        assert!(figure(&traced, "cache.reads") > 0.0);
        assert!(figure(&traced, "device.reads") > 0.0);
        assert!(figure(&traced, "tuner.busy_share") > 0.0);
    }
}
