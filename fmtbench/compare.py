#!/usr/bin/env python3
"""Runs sets of benchmark runs of one build and compares them.

Run from the root of a checkout:

    python3 fmtbench/compare.py --workloads sg_cli,point_query --seeds 10 --sets 2

Every set runs the command of BENCHMARK.json once per workload and seed
(seeds 1..N, the same in every set), for the file's run_seconds. The
sets are interleaved run by run (set 1 seed 1, set 2 seed 1, set 1
seed 2, ...), so drift in the machine's speed over minutes hits every
set alike. For every end-to-end metric it prints each set's median and
spread (distance between the first and third quartile as a share of the
median), and the relative change of every later set's median against
the first set's, in the metric's worse direction. A spread or change
above the metric's bound is flagged; setup_s is exempt from the spread
check, as in the acceptance rule the bounds serve.

--trace 1 runs the traced mode instead and prints per-layer medians.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"run failed ({' '.join(argv)}): rc={p.returncode}\n{p.stderr}")
    print(p.stderr.strip().splitlines()[-1], file=sys.stderr, flush=True)
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    # results[set][workload][metric] -> values over seeds
    results = [{w: {} for w in workloads} for _ in range(args.sets)]
    for w in workloads:
        for seed in range(1, args.seeds + 1):
            for s in range(args.sets):
                r = run_once(bench["command"], w, seed, bench["run_seconds"], args.trace)
                if not r["correct"] or r["failed"]:
                    sys.exit(f"{w} seed {seed}: {r['failed']} of {r['attempted']} ops failed")
                for name, m in r["metrics"].items():
                    results[s][w].setdefault(name, []).append(m["value"])

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            row = f"  {name:40s}"
            first = None
            for s, per_w in enumerate(results):
                v = per_w[w][name]
                med = statistics.median(v)
                row += f" | set{s + 1} median {med:12.4f}"
                if bound is None:
                    continue
                sp = spread(v) if len(v) >= 2 else 0.0
                flag = "" if name == "setup_s" or sp <= bound else " OVER"
                ok &= flag == ""
                row += f" spread {sp:6.1%}{flag}"
                if first is None:
                    first = med
                else:
                    worse = (med / first - 1) if m["better"] == "lower" else (first / med - 1)
                    flag = "" if worse <= bound else " OVER"
                    ok &= flag == ""
                    row += f" change {worse:+6.1%}{flag}"
            if bound is not None:
                row += f" | bound {bound:.0%}"
            print(row)
    if not args.trace:
        print("\nall within bounds" if ok else "\nSOME METRICS EXCEED THEIR BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
