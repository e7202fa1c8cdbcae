#!/usr/bin/env python3
"""Perf gate over a result file written by benchmark/suite.py.

    python3 benchmark/suite.py --runs 0 --traced 3 --out benchmark/out/gate.json
    python3 scripts/perf_gate.py benchmark/out/gate.json

Three bounds, each on the median of a per-layer metric over the file's traced
runs. CI takes three runs of each workload, because single `engine_tiny` runs
of the first row have read +17.0, +16.6 and +49.2 % for one build on one host.
Both sides of the first two are timed in alternating slices of one run, so
host drift cancels:

1. `serve.overhead_over_direct_pct` on `engine_tiny` (1-worker engine against
   `classify_block` on the same blocks) <= the canary's 1/max_batch, one extra
   inference per sealed batch, plus a 0.25 budget for completion wakes that
   preempt the worker on a small host. Batches collapsing to ~1 read >= 60.
2. The median `serve.trace_overhead_pct` over every traced run <= 3. It is
   taken at sample_rate 1, 64x the production rate, so it bounds the
   production cost from above.
3. `serve.batch_wait_ms_p50` on `gateway_tiny` <= 0.1 ms: its requests are
   lone, and a worker that pulls one takes what else is queued (nothing) and
   runs it (microseconds). Nothing in the engine waits for company, so this
   guards against such a wait being re-introduced; the timer it replaced read
   0.5 ms and more here.

Prints the verdicts; exits non-zero when any bound is exceeded.
"""
import json
import statistics
import sys

MAX_BATCH = 8  # ServeConfig::default().max_batch
ENGINE_BOUND_PCT = 100.0 * (1.0 / MAX_BATCH + 0.25)
TRACE_BOUND_PCT = 3.0
LONE_WAIT_BOUND_MS = 0.1


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    workloads = json.load(open(sys.argv[1]))["workloads"]
    traced = {name: w["traced"] for name, w in workloads.items()}
    for name in ("engine_tiny", "gateway_tiny"):
        if not traced.get(name):
            sys.exit(f"perf gate: no traced {name} run in the file (suite.py --traced 3)")
    values = lambda runs, metric: [r["metrics"][metric]["value"] for r in runs]
    engine = values(traced["engine_tiny"], "serve.overhead_over_direct_pct")
    trace = [v for runs in traced.values() for v in values(runs, "serve.trace_overhead_pct")]
    lone = values(traced["gateway_tiny"], "serve.batch_wait_ms_p50")
    checks = [("engine over direct classify_block, engine_tiny", engine, ENGINE_BOUND_PCT, "%"),
              ("tracing at sample_rate 1, all workloads", trace, TRACE_BOUND_PCT, "%"),
              ("batch wait of a lone request, gateway_tiny", lone, LONE_WAIT_BOUND_MS, "ms")]
    verdicts = [(name, statistics.median(got), len(got), bound, unit)
                for name, got, bound, unit in checks]
    for name, med, n, bound, unit in verdicts:
        print(f"[{'ok' if med <= bound else 'FAIL'}] {name}: {med:+.4g} {unit} "
              f"(median of {n}; bound <= {bound} {unit})")
    failed = [name for name, med, _, bound, _ in verdicts if med > bound]
    sys.exit(f"perf gate failed: {', '.join(failed)}" if failed else 0)


if __name__ == "__main__":
    main()
