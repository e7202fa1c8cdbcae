#!/usr/bin/env python3
"""Gate on the paper-side ledger: python3 scripts/paper_gate.py PAPER_<n>.json

Fails when Table II's ordering flips (CNV's deployed accuracy more than 2
points under n-CNV's or mu-CNV's) or when the deployed integer pipeline and
the float training graph agree on under 99 % of an architecture's test
frames (the deployment is meant to be exact).
"""
import json
import sys

archs = {a["name"]: a for a in json.load(open(sys.argv[1]))["architectures"]}
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
for f in failures:
    print(f"[fail] {f}")
sys.exit(1 if failures else 0)
