#!/usr/bin/env python3
"""Gate on the paper-side ledger:

    python3 scripts/paper_gate.py PAPER_<n>.json [PAPER_<older>.json]

Fails when Table II's ordering flips in the first ledger (CNV's deployed
accuracy more than 2 points under n-CNV's or mu-CNV's) or when its deployed
integer pipeline and float training graph agree on under 99 % of an
architecture's test frames (the deployment is meant to be exact).

Given a second ledger, it also fails when an architecture trained under an
equal `recipe` in both differs in any field but `timings`. The float GEMM
under training is order-preserving (every sum k-ascending from +0.0, see
crates/bcp-tensor/src/matmul.rs), so a change that is not meant to move the
trained numbers must leave every accuracy, diagonal, agreement count, Table
II and cycle-model field exactly as it was.
"""
import json
import sys


def load(path):
    return {a["name"]: a for a in json.load(open(path))["architectures"]}


def diffs(a, b, path=""):
    """Paths under which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for k in sorted(set(a) | set(b))
                for d in diffs(a.get(k), b.get(k), f"{path}.{k}" if path else k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in diffs(x, y, f"{path}[{i}]")]
    return [] if a == b else [path]


archs = load(sys.argv[1])
failures = []
for name, a in archs.items():
    agree = 100.0 * a["agree_frames"] / a["test_frames"]
    print(f"{name}: float {100 * a['float_accuracy']:.2f} %, deployed "
          f"{100 * a['deployed_accuracy']:.2f} %, agreement {agree:.2f} %")
    if agree < 99.0:
        failures.append(f"{name}: float/deployed agreement {agree:.2f} % < 99 %")
    if "CNV" in archs:
        gap = 100 * (a["deployed_accuracy"] - archs["CNV"]["deployed_accuracy"])
        if gap > 2.0:
            failures.append(f"CNV is {gap:.2f} points under {name} (bound 2)")

if len(sys.argv) > 2:
    older = load(sys.argv[2])
    for name, a in archs.items():
        b = older.get(name)
        if b is None or a["recipe"] != b["recipe"]:
            print(f"{name}: recipe new or changed since {sys.argv[2]}, not compared")
            continue
        a_rest = {k: v for k, v in a.items() if k != "timings"}
        b_rest = {k: v for k, v in b.items() if k != "timings"}
        moved = diffs(a_rest, b_rest)
        if moved:
            failures.append(f"{name}: equal recipe, differs from {sys.argv[2]} in {', '.join(moved)}")
        else:
            print(f"{name}: equal to {sys.argv[2]} in every field but timings")

for f in failures:
    print(f"[fail] {f}")
sys.exit(1 if failures else 0)
