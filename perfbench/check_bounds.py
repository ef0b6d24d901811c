#!/usr/bin/env python3
"""Checks that BENCHMARK.json's bounds can detect a slowdown.

Runs bank-mid 5 times in each of three ways, each run BENCHMARK.json's
run_seconds long:

  base    the benchmark as it is;
  rerun   the same code again, on other seeds;
  slowed  the body wrapper sleeps --delay-us at the start of every attempt.

For every end-to-end metric it compares each side's median with the base
median. The check passes when the rerun stays within every metric's bound
and the slowed run falls outside at least one bound. Run from the
repository root:

    python3 perfbench/check_bounds.py [--delay-us 2000]
"""

import argparse
import statistics
import sys

import run as bench

WORKLOAD = "bank-mid"
RUNS = 5


def medians(spec, seeds, delay_us):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        out = bench.run_once(WORKLOAD, seed, spec["run_seconds"], False, delay_us)
        if not out["correct"]:
            bench.die(f"{WORKLOAD} seed {seed} failed: {out['errors']}", code=1)
        for name in values:
            values[name].append(out["metrics"][name])
        print(f"# delay={delay_us}us seed={seed} " +
              " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    return {name: statistics.median(v) for name, v in values.items()}


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base
    return -change if metric["better"] == "higher" else change


def main():
    spec = bench.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--delay-us", type=int, default=2000)
    args = ap.parse_args()

    bench.build()
    seeds = list(range(1, RUNS + 1))
    base = medians(spec, seeds, 0)
    rerun = medians(spec, [s + 100 for s in seeds], 0)
    slowed = medians(spec, [s + 200 for s in seeds], args.delay_us)

    rerun_ok, slowed_caught = True, False
    print(f"# {'metric':<20} {'bound':>6} {'base':>12} {'rerun':>12} {'worse':>8}"
          f" {'slowed':>12} {'worse':>8}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        r = worse_by(m, base[name], rerun[name])
        s = worse_by(m, base[name], slowed[name])
        rerun_ok = rerun_ok and r <= bound
        slowed_caught = slowed_caught or s > bound
        print(f"# {name:<20} {bound:>6.2f} {base[name]:>12.6g} {rerun[name]:>12.6g} {r:>+8.3f}"
              f" {slowed[name]:>12.6g} {s:>+8.3f}{'  OUT' if s > bound else ''}")
    print(f"# rerun within bounds: {rerun_ok}; slowed run outside a bound: {slowed_caught}")
    sys.exit(0 if rerun_ok and slowed_caught else 1)


if __name__ == "__main__":
    main()
