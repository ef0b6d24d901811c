#!/usr/bin/env python3
"""Closed-loop RTS benchmark: build, run one workload, print the result.

Run from the repository root:

    python3 perfbench/run.py --workload bank-mid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced + traced

The first call configures and builds perfbench/ (and the simulator library
from src/) into .bench_build/perfbench; later calls rebuild incrementally.
With --trace 0 the result carries the end-to-end metrics BENCHMARK.json
lists, with --trace 1 its per-layer metrics, and the traced run writes its
spans to .bench_build/traces/<workload>.trace.json. The last line of
standard output is the result object; the lines before it, prefixed with
'#', give every metric with its unit and the build provenance. Every result
is also appended to .bench_build/results.jsonl. The exit code is 1 when the
run's output is wrong (Workload::verify or an accounting check failed) and 2
when the benchmark cannot run at all.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "rts_bench"
# Beyond the window a run spends 1 s of warmup, up to 5 s of drain (the
# latency limit), its set-ups and Workload::verify.
RUN_OVERHEAD_S = 60


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found at {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the simulator and benchmark sources (paths + contents)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace, inject_delay_us=0):
    """Runs the benchmark binary once and returns its parsed output."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if inject_delay_us:
        cmd += ["--inject-delay-us", str(inject_delay_us)]
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}.trace.json")]
    timeout = seconds + RUN_OVERHEAD_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {timeout:g} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"rts_bench exited with {proc.returncode}")
    return json.loads(lines[-1])


def result_line(out, spec, trace):
    """The result object: the metrics BENCHMARK.json lists for this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = bool(out["correct"])
    for m in wanted:
        value = out["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            print(f"# missing or non-finite metric {m['name']}", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def describe(out, result):
    """Human-readable lines (prefixed '#') printed before the result line."""
    lines = [f"# {out['workload']} seed={out['seed']} trace={int(out['trace'])}"
             f" attempted={out['attempted']} failed={out['failed']}"
             f" failed_frac={out['metrics']['failed_frac']:.6g}"]
    for err in out["errors"]:
        lines.append(f"# ERROR {err}")
    for name, v in result["metrics"].items():
        lines.append(f"#   {name:<40} {v['value']:>14.6g} {v['unit']}")
    m = out["metrics"]
    lines.append(f"#   tail: commit_p99_ms = {m['commit_p99_ms']:.6g} ms is the"
                 f" p{m['commit_tail_pct']:.4g} of {int(m['commit_samples'])} commits")
    lines.append(f"#   degradation (faults off, not asserted): net.rpc_retries ="
                 f" {m['net.rpc_retries']:.6g}, net.dedup_hits = {m['net.dedup_hits']:.6g},"
                 f" tfa.abort.watchdog_per_commit = {m['tfa.abort.watchdog_per_commit']:.6g}")
    return lines


def run_and_report(workload, seed, seconds, trace, spec):
    out = run_once(workload, seed, seconds, trace)
    out["provenance"].update(git_sha=git_sha(), source_digest=source_digest(), seed=seed)
    result = result_line(out, spec, trace)
    for line in describe(out, result):
        print(line)
    print("# provenance " + json.dumps(out["provenance"], sort_keys=True))
    log = ROOT / ".bench_build" / "results.jsonl"
    with log.open("a") as f:
        f.write(json.dumps(out, sort_keys=True) + "\n")
    return out, result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    if args.workload != "all":
        _, result = run_and_report(args.workload, args.seed, args.seconds, bool(args.trace),
                                   spec)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    ok = True
    for name in names:
        plain, r0 = run_and_report(name, args.seed, args.seconds, False, spec)
        traced, r1 = run_and_report(name, args.seed, args.seconds, True, spec)
        base = plain["metrics"]["throughput_txn_s"]
        overhead = base - traced["metrics"]["runtime.traced_throughput_txn_s"]
        print(f"# {name} tracing overhead: {overhead:.6g} txn/s"
              f" ({100 * overhead / base if base else 0:.3g}% of untraced throughput)")
        ok = ok and r0["correct"] and r1["correct"]
    print(json.dumps({"correct": ok}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
