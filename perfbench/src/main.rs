//! The RusKey benchmark's measuring program. It opens the store, loads it,
//! runs one workload for a fixed window through the public API, checks
//! every answer against a shadow model, and prints one JSON object with
//! every figure it measured. `run.py` builds it, runs it once per
//! workload run, and reports the figures `BENCHMARK.json` names.
//!
//! ```text
//! perfbench --workload serve_read|serve_write|dynamic_tuned --seed N
//!           --seconds S --trace 0|1 --setups K --data DIR [--spans FILE]
//! ```

mod dynamic;
mod pct;
mod report;
mod serve;
mod stack;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub setups: usize,
    pub data: PathBuf,
    pub spans: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            setups: 1,
            data: PathBuf::from(".bench_data"),
            spans: None,
        };
        while let Some(flag) = it.next() {
            let val = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => a.workload = val,
                "--seed" => a.seed = num(&val)?,
                "--seconds" => a.seconds = num(&val)?.clamp(1, 600),
                "--trace" => a.trace = num(&val)? != 0,
                "--setups" => a.setups = num(&val)?.clamp(1, 16) as usize,
                "--data" => a.data = PathBuf::from(val),
                "--spans" => a.spans = Some(PathBuf::from(val)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(a)
    }
}

/// Set-up times of one run; the report carries their median.
#[derive(Debug, Default)]
pub struct Setup {
    pub times: Vec<Duration>,
}

impl Setup {
    /// Runs `open` `k` times, timing each, and keeps the last store (each
    /// earlier one is dropped before the next opens).
    pub fn repeat<T>(
        &mut self,
        k: usize,
        mut open: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..k {
            drop(last.take());
            let t = Instant::now();
            last = Some(open()?);
            self.times.push(t.elapsed());
        }
        last.ok_or_else(|| "no set-up ran".into())
    }

    pub fn report(&self, r: &mut Report) {
        let mut t: Vec<f64> = self.times.iter().map(Duration::as_secs_f64).collect();
        t.sort_by(f64::total_cmp);
        r.put("setup_s", t[t.len() / 2], "s");
    }
}

/// Writes the span buffer out after the run, if asked to.
pub fn dump_spans(args: &Args, spans: &[Option<trace::Span>]) {
    if let Some(path) = &args.spans {
        if let Err(e) = trace::write_spans(path, spans) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
}

/// Span capacity: twice the client, cache and device spans per second
/// seen on a 2-vCPU VM (under 0.1 M); overflow is counted, not fatal.
fn span_capacity(seconds: u64) -> usize {
    (seconds as usize * 200_000).clamp(1 << 20, 1 << 24)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::install(span_capacity(args.seconds));
    }
    let result = match args.workload.as_str() {
        "serve_read" => serve::run(&serve::SERVE_READ, &args),
        "serve_write" => serve::run(&serve::SERVE_WRITE, &args),
        "dynamic_tuned" => dynamic::run(&dynamic::DYNAMIC_TUNED, &args),
        w => Err(format!("unknown workload {w:?}")),
    };
    let _ = std::fs::remove_dir_all(&args.data);
    match result {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
