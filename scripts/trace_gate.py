#!/usr/bin/env python3
"""Tracing overhead gate: head sampling at the production rate (1/64) must
be free. The traced engine entry of BENCH_summary.json has to land within
3% of the untraced one (one-sided — faster is fine, that is scheduler
noise).

Usage: trace_gate.py [BENCH_summary.json]
"""
import json
import sys

path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_summary.json"
s = json.load(open(path))
plain = s["serve_throughput/engine_2w_8clients"]["ns_per_iter"]
traced = s["serve_throughput/engine_2w_8clients_traced"]["ns_per_iter"]
overhead = traced / plain - 1.0
print(f"traced {traced:.0f} ns/iter vs untraced {plain:.0f} ns/iter ({overhead:+.2%})")
assert overhead <= 0.03, f"tracing overhead {overhead:.2%} exceeds 3% gate"
