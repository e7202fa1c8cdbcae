#!/usr/bin/env python3
"""Compare two result files written by suite.py.

    python3 benchmark/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of one
commit), B the candidate. For every workload and end-to-end metric this
prints both medians with their quartiles, the ratio B/A (base: A's median)
and a verdict against the bound BENCHMARK.json fixes for the metric:

  ok          B's median is not worse than A's by more than the bound
  worse       it is, and the runs resolve it
  unresolved  the distance between A's quartiles, or B's, is wider than
              the bound, so the runs cannot tell — unless every run of B
              reads better than every run of A, which is ok

One row per workload and metric. The exit code is 1 if any row is `worse`.
Simulated-time and operation counts from the traced runs must repeat
exactly; a count that differs is also reported and also fails.
Run it from the root of the repository.
"""
import json
import statistics
import sys

EXACT = ["finn.cycles_per_frame", "finn.ii_cycles", "finn.model_fps_100mhz",
         "bitpack.popcount_words_per_frame"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.load(open(p)) for p in sys.argv[1:])
    spec = json.load(open("BENCHMARK.json"))
    if a["run_seconds"] != b["run_seconds"]:
        sys.exit(f"run lengths differ: {a['run_seconds']} s and {b['run_seconds']} s")
    failed = False
    print(f"{'workload':<13} {'metric':<15} {'A median [q1 .. q3]':<34} {'B median [q1 .. q3]':<34} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        for m in spec["end_to_end"]:
            va, vb = values_of(ra["untraced"], m["name"]), values_of(rb["untraced"], m["name"])
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            higher = m["better"] == "higher"
            # How much worse B's median is, as a share of A's.
            loss = (am - bm) / am if higher else (bm - am) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            all_better = min(vb) > max(va) if higher else max(vb) < min(va)
            if spread > m["bound"] and not all_better:
                verdict = f"unresolved (spread {spread:.3f})"
            elif loss > m["bound"]:
                verdict = "worse"
                failed = True
            else:
                verdict = "ok"
            fmt = lambda med, lo, hi: f"{med:.4f} [{lo:.4f} .. {hi:.4f}]"
            print(f"{workload:<13} {m['name']:<15} {fmt(am, a1, a3):<34} {fmt(bm, b1, b3):<34} "
                  f"{bm / am:>7.4f} {m['bound']:>6}  {verdict}")
        for name in EXACT if ra["traced"] and rb["traced"] else []:
            counts = set(values_of(ra["traced"], name)) | set(values_of(rb["traced"], name))
            if len(counts) != 1:
                print(f"{workload:<13} {name}: does not repeat exactly: {sorted(counts)}")
                failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
