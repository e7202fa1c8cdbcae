#!/usr/bin/env python3
"""Run the whole benchmark as the driver does and keep the numbers.

    python3 benchmark/suite.py --out benchmark/out/A.json [--runs 10] [--traced 1]
                               [--seconds N] [--seed0 100] [--workload NAME ...]

For every workload in BENCHMARK.json this runs the benchmark command
`--runs` times untraced, each with another `--seed`, then `--traced` times
traced, checks every result line against the names and units BENCHMARK.json
declares (each present, none extra), and writes all values to `--out`.
It prints, per workload and end-to-end metric, the median, the quartiles
and their distance as a share of the median: the spread the driver holds
against the metric's bound. Two such files compare with compare.py.
Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(spec, workload, seed, seconds, trace):
    """One run of the benchmark command; returns its checked result."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"{' '.join(cmd)}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload}: result keys are {sorted(result)}")
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit(f"{workload} trace {trace}: missing {missing}, extra {extra}, unit differs {units}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: not correct: {lines[-1]}")
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    for w in args.workload or []:
        if w not in names:
            sys.exit(f"no workload {w} in BENCHMARK.json")
    out = {"run_seconds": seconds, "workloads": {}}
    t_start = time.time()
    for workload in args.workload or names:
        runs = [run_once(spec, workload, args.seed0 + i, seconds, 0) for i in range(args.runs)]
        traced = [run_once(spec, workload, args.seed0 + i, seconds, 1) for i in range(args.traced)]
        out["workloads"][workload] = {"untraced": runs, "traced": traced}
        print(f"{workload}: {len(runs)} untraced and {len(traced)} traced runs of {seconds} s")
        for m in spec["end_to_end"] if runs else []:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "" if spread <= m["bound"] / 3 else (
                "  (above a third of the bound)" if spread <= m["bound"] else "  ABOVE THE BOUND")
            print(f"  {m['name']:<16} {med:>12.4f} {m['unit']:<9} quartiles {q1:.4f} .. {q3:.4f}"
                  f"  spread {spread:.4f} of bound {m['bound']}{verdict}")
        for m in spec["per_layer"] if traced else []:
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            print(f"  {m['name']:<36} {statistics.median(values):>16.4f} {m['unit']}")
    out["wall_s"] = time.time() - t_start
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    print(f"wrote {args.out} after {out['wall_s']:.0f} s")


if __name__ == "__main__":
    main()
