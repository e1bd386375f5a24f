#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times per set and reports the spread.

    python3 perfbench/steady.py --workload kernels [--runs 10] [--sets 2]

Every set runs the workload with seeds 1..N, one after the other, for
BENCHMARK.json's run_seconds each (--runs 5 --sets 1 makes a quick check
while tuning). For every end-to-end metric it prints the median, the
first and third quartiles (Python's statistics.quantiles(n=4)), the
spread (Q3 - Q1) / median, the bound from BENCHMARK.json and whether the
spread is within a third of it (the target) and within it (the limit).
With two or more sets it then compares each later set's medians with the
first set's: a metric whose median got worse by more than its bound, or
a failed-operation share that differs between sets, fails the
comparison. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(workload, runs, seconds, bounds):
    """Runs seeds 1..runs; returns ({metric: [values]}, [failed shares])."""
    values, shares = {}, []
    for seed in range(1, runs + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", repr(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            sys.exit(f"run with seed {seed} failed (exit {done.returncode})")
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds), file=sys.stderr)
    return values, shares


def spread_table(values, bounds):
    """Prints the spread table of one set; returns its medians and verdict."""
    print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    medians, worst = {}, "ok"
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        medians[name] = med
        bound = bounds[name]
        verdict = ("ok" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "TOO WIDE")
        if verdict != "ok" and worst != "TOO WIDE":
            worst = verdict
        print(f"{name:14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound:>6}  {verdict}")
    return medians, worst


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("kernels", "compile-stream", "serve-mix"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    if args.runs < 2 or args.sets < 1:
        ap.error("--runs must be at least 2 and --sets at least 1")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        values, shares = run_set(args.workload, args.runs,
                                 bench["run_seconds"], bounds)
        print(f"{args.workload} set {s + 1}: {args.runs} runs of "
              f"{bench['run_seconds']} s, failed shares {sorted(set(shares))}")
        medians, worst = spread_table(values, bounds)
        print(f"spread: {worst}")
        sets.append((medians, sorted(set(shares))))

    first, first_shares = sets[0]
    for s, (medians, shares) in enumerate(sets[1:], start=2):
        print(f"set {s} against set 1 (change in the worse direction, "
              f"as a share of set 1's median)")
        ok = shares == first_shares
        if not ok:
            print(f"failed shares differ: {first_shares} vs {shares}")
        for name, med in medians.items():
            base = first[name]
            sign = 1 if better[name] == "lower" else -1
            worse = sign * (med - base) / base if base else 0.0
            verdict = "ok" if worse <= bounds[name] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{name:14} {base:12.6g} {med:12.6g} {worse:+8.4f} "
                  f"{bounds[name]:>6}  {verdict}")
        print(f"comparison: {'ok' if ok else 'FAILED'}")


if __name__ == "__main__":
    main()
