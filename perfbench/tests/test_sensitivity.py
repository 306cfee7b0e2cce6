#!/usr/bin/env python3
"""Layer-sensitivity self-check: does the benchmark measure each layer?

Each case slows one layer on purpose, from the benchmark side only, and
checks two things against the metric's bound in BENCHMARK.json:

  * on the workload that exercises the layer, the mapped metric gets worse
    by more than its bound;
  * on a workload that bypasses the layer, the same metric stays within it.

Cases (see perfbench/README.md for the full layer map):

  frontend        --inject parse2    parse_source twice per advise candidate
  model engine    --inject predict2  predict_batch twice per advise query
  serve batching  --inject window2   daemon started with a doubled --window-us

parse2 and predict2 act only where the benchmark itself calls the layer, so
on the bypassing workload the "injected" run is the same configuration as
the baseline. Those legs are noise-only controls: they show the check does
not fire on noise, not that the layers are isolated. window2 does reach
serve-repeat's daemon, so its bypass leg is a real isolation check.

Each comparison runs a baseline and an injected run back to back on one
seed, `--repeats` times; the median of the paired changes is the verdict.
Pairing keeps slow drifts of a shared host out of the comparison.

    python3 perfbench/tests/test_sensitivity.py [--seconds S] [--repeats 5]

`--seconds` defaults to BENCHMARK.json's run_seconds.

Run from the repository root; exits 0 only when every case passes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# (layer, injection, metric, workload that exercises it, workload that
#  bypasses it, whether the injection acts on the bypassing workload)
CASES = [
    ("frontend", "parse2", "cpu_us_per_op", "advise", "train", False),
    ("model engine", "predict2", "cpu_us_per_op", "advise", "serve-repeat", False),
    ("serve batching", "window2", "latency_p50_us", "serve", "serve-repeat", True),
]


def run(workload, inject, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--inject", inject],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("%s --inject %s failed its correctness gates" % (workload, inject))
    return {k: m["value"] for k, m in result["metrics"].items()}


def worsening(metric_spec, base, injected):
    """Relative change in the metric's bad direction (positive = worse)."""
    change = (injected - base) / base
    return change if metric_spec["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--layer", help="run only this layer's check, e.g. frontend")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    e2e = set(specs)
    # Request latency did not repeat within any allowed bound on a shared
    # host, so it is a per-layer metric without a bound of its own; its
    # check uses the largest bound the benchmark may set.
    specs["latency_p50_us"] = {"better": "lower", "bound": 0.25}
    args.seconds = args.seconds or bench["run_seconds"]

    ok = True
    for layer, inject, metric, exercised, bypassed, acts in CASES:
        if args.layer and args.layer != layer:
            continue
        bound = specs[metric]["bound"]
        trace = 0 if metric in e2e else 1  # per-layer metrics come from --trace 1
        legs = ((exercised, True, "must exceed"),
                (bypassed, False, "must stay within" if acts else
                 "noise-only control, must stay within"))
        for workload, must_move, rule in legs:
            changes = []
            for _ in range(args.repeats):
                base = run(workload, "none", args.seed, args.seconds, trace)[metric]
                inj = run(workload, inject, args.seed, args.seconds, trace)[metric]
                changes.append(worsening(specs[metric], base, inj))
            worse = statistics.median(changes)
            passed = worse > bound if must_move else worse <= bound
            ok &= passed
            print("%-4s %-15s %-9s %-13s %-15s %+7.1f%% (bound %.0f%%, %s)" % (
                "ok" if passed else "FAIL", layer, inject, workload, metric,
                100 * worse, 100 * bound, rule), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
