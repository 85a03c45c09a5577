#!/usr/bin/env python3
"""Check that perfbench is steady enough for its own bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Runs every workload of BENCHMARK.json --runs times per set for its
run_seconds, each run of a set with another seed, in alternating order
(forward on even rounds, reversed on odd ones). For each end-to-end metric
it prints the median, the quartiles and the spread, the quartile distance
as a share of the median, against the metric's bound. A spread must stay
under a third of the bound. With --sets 2 it also compares the two sets'
medians: the second may not be worse than the first by more than the bound.
Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed its correctness gates")
    return result["metrics"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    runs = {}  # (set, workload) -> [metrics]
    for s in range(args.sets):
        for r in range(args.runs):
            seed = 1 + s * args.runs + r
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                m = run_once(w, seed, spec["run_seconds"])
                runs.setdefault((s, w), []).append(m)
                print(f"set {s} run {r} {w} seed {seed}: " +
                      ", ".join(f"{k} = {v['value']:.6g} {v['unit']}"
                                for k, v in sorted(m.items())),
                      flush=True)
    if args.runs < 2:
        return  # quartiles need two runs or more

    ok = True
    print(f"\n{'workload':14} {'metric':18} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                values = [run[name]["value"] for run in runs[(s, w)]]
                q1, med, q3, sp = spread(values)
                medians.append(med)
                steady = sp < bound / 3
                ok &= steady
                print(f"{w:14} {name:18} {s:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:7.2%} {bound:6.0%}  "
                      f"{'ok' if steady else 'TOO WIDE'}")
            if args.sets == 2:
                a, b = medians
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                agree = worse <= bound
                ok &= agree
                print(f"{w:14} {name:18} second set worse by {worse:+.2%} "
                      f"(bound {bound:.0%})  {'ok' if agree else 'DRIFT'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
