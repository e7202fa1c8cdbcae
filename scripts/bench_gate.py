#!/usr/bin/env python3
"""CI bench gate over BENCH_summary.json.

Two enforced invariants, both measured by `cargo bench -p bcp-bench`
(host-native codegen via .cargo/config.toml):

1. Blocked-kernel speedup: the register-blocked multi-frame GEMM must
   deliver at least MIN_BLOCKED_SPEEDUP the single-frame kernel's frames/s
   at the gated batch size (B=8) on the large-MVTU shape, where the
   single-frame loop is memory-bound (it re-streams the packed weight
   matrix once per frame; the blocked kernel streams it once per register
   block of 4 frames).

2. Engine-vs-sequential at 1 worker: the micro-batching engine under
   pipelined closed-loop load must track the same predictor driven
   sequentially, up to two explicitly budgeted costs:

   * The canary integrity tax. The canary runs before every batch (the
     invariant that a corrupted replica can never emit a wrong
     classification), so the worker runs exactly one extra full-frame
     inference per batch — a tax of 1/max_batch = 1/8 on compute. Hiding
     the canary for the benchmark would gate a configuration nobody
     serves with, so the gate budgets it instead.
   * The single-core client-wake budget. Completing a batch wakes its
     clients; on a one-core runner those wakes preempt the worker's next
     batch, a context-switch cost a zero-thread sequential loop never
     pays. Measured at 11-20% here; budgeted with headroom below. On a
     multi-core host this term vanishes (clients wake on other cores) —
     the gate is the single-core-honest form of ROADMAP's "engine >=
     sequential at 1 worker".

   Both sides are measured *paired*: the bench alternates sequential and
   engine rounds inside one loop and records the two medians, so the slow
   ±25% frequency/neighbor drift of a shared runner cancels out of the
   ratio (pairwise spread is ±4%). The gate is deliberately tight enough
   to catch the failure mode it exists for — if micro-batching collapses
   to batches of ~1, the canary runs per frame and every completion wakes
   alone, and the ratio lands at >= 1.6x.

Usage: bench_gate.py [BENCH_summary.json]
Exits non-zero with a per-check verdict when any gate fails.
"""

import json
import sys

MIN_BLOCKED_SPEEDUP = 2.0

# Engine gate budget. MAX_BATCH mirrors ServeConfig::default().max_batch;
# the canary tax is exactly one extra inference per batch of MAX_BATCH.
MAX_BATCH = 8
CANARY_TAX = 1.0 / MAX_BATCH
# Context switches from completion wakes on a single core: measured
# 0.11-0.20 across runs depending on neighbor load on the shared vCPU,
# budgeted at 0.25 so a noisy neighbor does not flake the gate while a
# batching collapse (>= 1.6x) still fails it by a wide margin.
WAKE_BUDGET = 0.25

GATED_KERNEL = ("kernel_gemm/blocked_fps/B8", "kernel_gemm/single_fps/B8")
GATED_ENGINE = (
    "serve_throughput/paired_engine_1w_pipelined",
    "serve_throughput/paired_sequential",
)

# Reported for context (not gated): the fused-threshold operator path and
# the L1-resident CNV shape, where no >=2x exists by construction, plus
# the independently timed (unpaired, drift-prone) serving entries.
CONTEXT_RATIOS = [
    ("kernel_gemm/mvtu_fused_fps_B8", "kernel_gemm/mvtu_single_fps_B8"),
    ("kernel_gemm_cnv/blocked_fps_B8", "kernel_gemm_cnv/single_fps_B8"),
    ("kernel_gemm_cnv/mvtu_fused_fps_B8", "kernel_gemm_cnv/mvtu_single_fps_B8"),
    ("serve_throughput/sequential_classify", "serve_throughput/engine_1w_8clients"),
    ("serve_throughput/sequential_classify",
     "serve_throughput/engine_1w_8clients_pipelined"),
]


def ns(summary, key):
    try:
        return float(summary[key]["ns_per_iter"])
    except KeyError:
        sys.exit(f"bench gate: entry {key!r} missing from summary "
                 f"(run `cargo bench -p bcp-bench` first)")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_summary.json"
    with open(path) as f:
        summary = json.load(f)

    failures = []

    fast, slow = GATED_KERNEL
    speedup = ns(summary, slow) / ns(summary, fast)
    verdict = "ok" if speedup >= MIN_BLOCKED_SPEEDUP else "FAIL"
    print(f"[{verdict}] blocked GEMM speedup at B=8: {speedup:.2f}x "
          f"(gate: >= {MIN_BLOCKED_SPEEDUP:.1f}x)")
    if speedup < MIN_BLOCKED_SPEEDUP:
        failures.append("blocked GEMM speedup")

    engine, sequential = GATED_ENGINE
    bound = 1.0 + CANARY_TAX + WAKE_BUDGET
    ratio = ns(summary, engine) / ns(summary, sequential)
    verdict = "ok" if ratio <= bound else "FAIL"
    print(f"[{verdict}] engine@1w vs sequential (paired): {ratio:.3f}x "
          f"(gate: <= {bound:.3f}x = 1 + canary {CANARY_TAX:.3f} "
          f"+ wake budget {WAKE_BUDGET:.2f})")
    # Decomposition: per-inference cost once the canary's extra inferences
    # are counted as work. The engine runs N user frames plus N/max_batch
    # canary frames per iteration; at parity with sequential per-frame
    # cost this term is 1.0 + the wake cost alone.
    per_inf = ratio / (1.0 + CANARY_TAX)
    print(f"[info] engine per-inference cost incl. canary work: "
          f"{per_inf:.3f}x sequential per-frame")
    if ratio > bound:
        failures.append("engine amortization")

    for fast, slow in CONTEXT_RATIOS:
        if fast in summary and slow in summary:
            print(f"[info] {fast} vs {slow}: "
                  f"{ns(summary, slow) / ns(summary, fast):.2f}x")

    if failures:
        sys.exit(f"bench gate failed: {', '.join(failures)}")
    print("bench gate passed")


if __name__ == "__main__":
    main()
