#!/usr/bin/env python3
"""RusKey benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the measuring program (perfbench/, a Cargo package of its own over
the repository's crates), runs workload W once with inputs drawn from
seed N for a window of about S seconds, and prints the figures named in
BENCHMARK.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, taken from a
traced run next to an untraced one (their throughput gap is the tracing
overhead). Lines before it give the host record and every figure with its
sample count; a full record of the run goes to .bench_out/.

Everything the benchmark reads and writes stays inside the checkout it
runs from, apart from the kernel's /proc/stat counters, which give the
steal share of the host's CPU time.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
DATA = os.path.join(ROOT, ".bench_data")
# Set-ups per untraced run; the run reports their median.
SETUPS = 5
# Per-run budget: the whole run must end within 180 s.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the measuring program; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run_child(cmd, timeout):
    """Runs one measuring process; returns (its JSON report, peak RSS MiB)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
    # wait4 gives this child's own peak RSS, so one workload's peak can
    # never show up as another's.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("measuring program printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def measure(binary, args, traced, setups, tag):
    data = os.path.join(DATA, f"{args.workload}-{os.getpid()}-{tag}")
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
        "--setups", str(setups), "--data", data,
    ]
    if traced:
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}.bin")]
    try:
        return run_child(cmd, CHILD_TIMEOUT_S // (2 if args.trace else 1))
    finally:
        shutil.rmtree(data, ignore_errors=True)


def fs_type(path):
    res = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def revision():
    """The git revision when the checkout is a repository, else none; plus
    a digest of the sources either way, so runs of one tree match up."""
    rev = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            rev = f.read().strip()
        if rev.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", rev[5:])
            if os.path.isfile(ref):
                with open(ref) as f:
                    rev = f.read().strip()
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(DATA, exist_ok=True)

    base, rss = measure(binary, args, False, 1 if args.trace else SETUPS, "plain")
    checks = {"shadow_model_mismatches": base["wrong"]}
    notes = list(base["notes"])
    attempted, failed = base["attempted"], base["failed"]
    figures = dict(base["metrics"])
    figures["rss_peak_mb"] = {"value": rss, "unit": "MB", "n": None, "refused": False}
    if args.trace:
        traced, _ = measure(binary, args, True, 1, "traced")
        checks["traced_shadow_model_mismatches"] = traced["wrong"]
        notes += traced["notes"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        if args.workload == "dynamic_tuned":
            # The wrappers must be invisible to the engine: same virtual
            # time, policies and LSM counts with and without them.
            checks["traced_counts_differ"] = int(base["fingerprint"] != traced["fingerprint"])
        for name, m in traced["metrics"].items():
            # Client latencies come from the untraced run.
            if not name.startswith("client."):
                figures[name] = m
        t0 = base["metrics"]["client.throughput_ops_s"]["value"]
        t1 = traced["metrics"]["client.throughput_ops_s"]["value"]
        figures["trace.overhead_pct"] = {
            "value": 100.0 * (t0 - t1) / t0, "unit": "%", "n": None, "refused": False}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        fail(f"no figure for {missing}")
    units = [m["name"] for m in wanted if figures[m["name"]]["unit"] != m["unit"]]
    if units:
        fail(f"unit differs from BENCHMARK.json for {units}")
    if not args.trace:
        bad = [m["name"] for m in wanted if figures[m["name"]]["value"] <= 0]
        if bad:
            fail(f"end-to-end figures without a valid value: {bad}")
    correct = failed == 0 and all(v == 0 for v in checks.values())

    rev, digest = revision()
    host = {
        "nproc": os.cpu_count(),
        "data_fs": fs_type(DATA),
        "git_rev": rev,
        "source_digest": digest,
        "steal_pct": figures.get("host.steal_pct", {}).get("value"),
    }
    print(f"# host {json.dumps(host)}")
    print(f"# checks {json.dumps(checks)}")
    for note in notes:
        print(f"# note: {note}")
    for name, m in sorted(figures.items()):
        n = "" if m["n"] is None else f" n={m['n']}"
        refused = " (percentile refused: under 10 samples beyond it)" if m["refused"] else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{n}{refused}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "checks": checks, "correct": correct,
              "attempted": attempted, "failed": failed, "notes": notes, "figures": figures}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
