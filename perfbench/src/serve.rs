//! `serve_read` and `serve_write`: closed-loop `ServingClient` threads
//! over disjoint key ranges of a two-shard store with background
//! maintenance, every answer checked against the client's shadow model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruskey::db::RusKeyConfig;
use ruskey::frontend::{ServingClient, ServingConfig};
use ruskey::tuner::NoOpTuner;
use ruskey_storage::{FileDisk, Storage};
use ruskey_workload::dist::KeySampler;
use ruskey_workload::generator::decode_key;
use ruskey_workload::{client_key_range, encode_key, KeyDistribution};

use crate::pct::{Histogram, Sample, Timings};
use crate::report::{self, Report};
use crate::stack::{self, initial_value, Stack, StackSpec, KEY_LEN, POOL, VALUE_LEN};
use crate::trace::{self, Kind};
use crate::{Args, Setup};

/// One serving workload.
pub struct Serve {
    pub keys: u64,
    pub clients: usize,
    pub shards: usize,
    /// Get and put shares; scans take the rest.
    pub get: f64,
    pub put: f64,
    pub zipf: bool,
    /// Acknowledged puts per second of `--seconds` over which `write_amp`
    /// is taken: a count even a slow host reaches, so the ratio covers
    /// the same work in every run.
    pub amp_puts_per_second: u64,
}

pub const SERVE_READ: Serve = Serve {
    keys: 200_000,
    clients: 2,
    shards: 2,
    get: 0.95,
    put: 0.05,
    zipf: true,
    amp_puts_per_second: 600,
};

pub const SERVE_WRITE: Serve = Serve {
    keys: 200_000,
    clients: 2,
    shards: 2,
    get: 0.10,
    put: 0.85,
    zipf: false,
    amp_puts_per_second: 2000,
};

const SCAN_LIMIT: usize = 100;
const SCAN_SPAN: u64 = 100;
/// Steps per client script; a client cycles through its script.
const SCRIPT_LEN: usize = 1 << 17;

/// One scripted request; ids are offsets into the client's key range.
#[derive(Clone, Copy)]
enum Step {
    Get(u32),
    Put(u32, u16),
    Scan(u32),
}

fn script(w: &Serve, span: u64, seed: u64) -> Vec<Step> {
    let dist = if w.zipf {
        KeyDistribution::zipfian_default()
    } else {
        KeyDistribution::Uniform
    };
    let keys = KeySampler::new(span, dist);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SCRIPT_LEN)
        .map(|_| {
            let id = keys.sample(&mut rng) as u32;
            let x: f64 = rng.gen();
            if x < w.get {
                Step::Get(id)
            } else if x < w.get + w.put {
                Step::Put(id, rng.gen_range(0..POOL as u16))
            } else {
                Step::Scan(id)
            }
        })
        .collect()
}

/// What one client brought home.
struct Outcome {
    /// Latency of gets, puts and scans.
    lat: [Histogram; 3],
    ops: u64,
    puts: u64,
    failed: u64,
    wrong: u64,
    start: Instant,
    end: Instant,
    /// Expected value index per key of the client's range.
    model: Vec<u16>,
}

/// What every client of one run shares.
struct Shared<'a> {
    pool: &'a [Bytes],
    window: Duration,
    barrier: Barrier,
    /// Puts acknowledged so far, across clients.
    puts: AtomicU64,
    /// The put count `write_amp` is taken over, and the device bytes
    /// written when it was reached.
    target: u64,
    bytes_at_target: OnceLock<u64>,
    disk: &'a FileDisk,
}

fn run_client(
    client: &ServingClient,
    steps: &[Step],
    lo: u64,
    mut model: Vec<u16>,
    sh: &Shared,
) -> Outcome {
    let pool = sh.pool;
    let hi = lo + model.len() as u64;
    let mut lat: [Histogram; 3] = Default::default();
    let (mut ops, mut puts, mut failed, mut wrong) = (0u64, 0u64, 0u64, 0u64);
    sh.barrier.wait();
    let start = Instant::now();
    let deadline = start + sh.window;
    let mut end = start;
    for step in steps.iter().cycle() {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let (slot, ok) = match *step {
            Step::Get(id) => {
                let key = encode_key(lo + u64::from(id), KEY_LEN);
                let got = trace::span(Kind::ClientGet, || client.get(&key));
                let want = &pool[model[id as usize] as usize];
                match got {
                    Ok(v) => {
                        wrong += u64::from(v.as_ref() != Some(want));
                        (0, true)
                    }
                    Err(_) => (0, false),
                }
            }
            Step::Put(id, v) => {
                let key = encode_key(lo + u64::from(id), KEY_LEN);
                let value = pool[v as usize].clone();
                let res = trace::span(Kind::ClientPut, || client.put(key, value));
                if res.is_ok() {
                    model[id as usize] = v;
                    puts += 1;
                    if sh.puts.fetch_add(1, Ordering::Relaxed) + 1 == sh.target {
                        let _ = sh.bytes_at_target.set(sh.disk.metrics().bytes_written);
                    }
                }
                (1, res.is_ok())
            }
            Step::Scan(id) => {
                let first = lo + u64::from(id);
                let last = (first + SCAN_SPAN).min(hi);
                let (s, e) = (encode_key(first, KEY_LEN), encode_key(last, KEY_LEN));
                let got = trace::span(Kind::ClientScan, || client.scan(&s, &e, SCAN_LIMIT));
                match got {
                    Ok(rows) => {
                        // Every key exists, so the answer is exactly the
                        // range's first `SCAN_LIMIT` keys.
                        let want = ((last - first) as usize).min(SCAN_LIMIT);
                        let bad = rows.len() != want
                            || rows.iter().enumerate().any(|(i, (k, v))| {
                                let id = decode_key(k);
                                id != first + i as u64
                                    || *v != pool[model[(id - lo) as usize] as usize]
                            });
                        wrong += u64::from(bad);
                        (2, true)
                    }
                    Err(_) => (2, false),
                }
            }
        };
        end = Instant::now();
        ops += 1;
        if ok {
            lat[slot].record((end - t0).as_nanos() as u64);
        } else {
            failed += 1;
        }
    }
    Outcome {
        lat,
        ops,
        puts,
        failed,
        wrong,
        start,
        end,
        model,
    }
}

fn open_loaded(w: &Serve, args: &Args, pool: &[Bytes]) -> Result<(Stack, u64), String> {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.background_maintenance = true;
    let spec = StackSpec {
        cfg,
        shards: w.shards,
        // Larger than the data (about 1.2x the payload once loaded), so
        // reads stay in the cache; small enough that written pages fill
        // it early in every run, so peak memory does not track how much
        // a run managed to write.
        cache_pages: stack::data_pages(w.keys) * 3 / 2,
        traced: args.trace,
    };
    let mut st = stack::open(&args.data, spec, Box::new(NoOpTuner))?;
    stack::bulk_load(&mut st.store, w.keys, args.seed, pool);
    // Warm-up: one sweep reads every page into the cache and checks the
    // bulk load.
    let wrong = stack::sweep(&mut st.store, w.keys, |id| {
        Some(pool[initial_value(args.seed, id) as usize].clone())
    });
    Ok((st, wrong))
}

pub fn run(w: &Serve, args: &Args) -> Result<Report, String> {
    let pool = stack::value_pool(args.seed);
    let mut r = Report::default();
    let mut setup = Setup::default();
    let (mut st, load_wrong) = setup.repeat(args.setups, || open_loaded(w, args, &pool))?;
    r.wrong += load_wrong;

    let ranges: Vec<(u64, u64)> = (0..w.clients)
        .map(|c| client_key_range(w.keys, w.clients, c))
        .collect();
    let scripts: Vec<Vec<Step>> = ranges
        .iter()
        .enumerate()
        .map(|(c, (lo, hi))| script(w, hi - lo, args.seed ^ (c as u64 + 1) << 32))
        .collect();
    let models: Vec<Vec<u16>> = ranges
        .iter()
        .map(|&(lo, hi)| (lo..hi).map(|id| initial_value(args.seed, id)).collect())
        .collect();

    let before = st.counters();
    let frontend = st
        .store
        .serve(ServingConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let sh = Shared {
        pool: &pool,
        window: Duration::from_secs(args.seconds),
        barrier: Barrier::new(w.clients),
        puts: AtomicU64::new(0),
        target: w.amp_puts_per_second * args.seconds,
        bytes_at_target: OnceLock::new(),
        disk: &st.disk,
    };
    let mut live = Vec::new();
    trace::start();
    let outcomes: Vec<Outcome> = thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(models)
            .zip(&ranges)
            .map(|((steps, model), &(lo, _))| {
                let client = frontend.client();
                let sh = &sh;
                s.spawn(move || run_client(&client, steps, lo, model, sh))
            })
            .collect();
        // Space in use, sampled through the window: the end state alone
        // depends on whether a merge just finished.
        while !handles.iter().all(|h| h.is_finished()) {
            thread::sleep(Duration::from_millis(50));
            live.push(st.live_bytes());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    trace::stop();
    let snap = st
        .store
        .finish_serving(frontend)
        .map_err(|e| format!("finish serving: {e}"))?;
    let win = st.counters().since(&before);

    // Final state against the union of the clients' models.
    let final_wrong = stack::sweep(&mut st.store, w.keys, |id| {
        let c = ranges.partition_point(|&(_, hi)| hi <= id);
        let (lo, _) = ranges[c];
        Some(pool[outcomes[c].model[(id - lo) as usize] as usize].clone())
    });
    r.wrong += final_wrong;

    let ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    let puts: u64 = outcomes.iter().map(|o| o.puts).sum();
    r.attempted = ops;
    r.failed = outcomes.iter().map(|o| o.failed).sum();
    r.wrong += outcomes.iter().map(|o| o.wrong).sum::<u64>();
    let start = outcomes.iter().map(|o| o.start).min().expect("clients ran");
    let end = outcomes.iter().map(|o| o.end).max().expect("clients ran");
    let wall = (end - start).as_secs_f64();
    let [get, put, scan] = &outcomes
        .iter()
        .fold(<[Histogram; 3]>::default(), |mut acc, o| {
            for (a, h) in acc.iter_mut().zip(&o.lat) {
                a.merge(h);
            }
            acc
        });
    let mut all = get.clone();
    all.merge(put);
    all.merge(scan);

    r.put(
        "virtual_ns_per_op",
        win.tree.busy_ns as f64 / ops as f64,
        "ns",
    );
    setup.report(&mut r);
    let user = (KEY_LEN + VALUE_LEN) as f64;
    r.put(
        "space_amp",
        stack::mean(&live) / (w.keys as f64 * user),
        "ratio",
    );
    let amp = match sh.bytes_at_target.get() {
        Some(bytes) => (bytes - before.device_bytes_written) as f64 / (sh.target as f64 * user),
        None => {
            r.notes.push(format!(
                "write_amp over the whole window: only {puts} of {} puts acknowledged",
                sh.target
            ));
            win.device_bytes_written as f64 / (puts as f64 * user)
        }
    };
    r.put("write_amp", amp, "ratio");
    r.put("client.throughput_ops_s", ops as f64 / wall, "1/s");
    for (h, name) in [(get, "get"), (put, "put"), (scan, "scan")] {
        r.pct(&format!("client.{name}_p50_us"), h, 0.5, 1e3, "us");
        r.pct(&format!("client.{name}_p99_us"), h, 0.99, 1e3, "us");
    }
    report::missions(&mut r, &Sample::default());
    r.put("process.cpu_us_per_op", win.cpu_us_per_op(ops), "us");
    r.put("host.steal_pct", win.steal_pct(), "%");

    let (spans, dropped) = trace::drain();
    let storage_us = report::storage_ns(&spans) as f64 / 1e3;
    report::frontend(
        &mut r,
        Some(&snap),
        all.mean() / 1e3 - storage_us / ops as f64,
    );
    report::sharded(&mut r, &Sample::default());
    report::tuner(&mut r, &Sample::default(), 0.0, 0.0, 0, 0);
    report::lsm(&mut r, &win);
    report::storage(&mut r, &spans, &win);
    r.put("trace.dropped_spans", dropped as f64, "count");
    if args.trace {
        crate::dump_spans(args, &spans);
    }
    Ok(r)
}
