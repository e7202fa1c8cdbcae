#!/usr/bin/env bash
# What CI's build-and-test and lint jobs gate on, in one local command.
# Tier-1 (`cargo build --release && cargo test -q`) covers only the root
# package's suites; this also runs the other crates' tests, the frozen
# benchmark's smoke, the source analyzers and the perf gates, so local
# green means CI green. Run from anywhere inside the repository; takes
# ~15 min on one core.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
bcp() { cargo run --release --offline -q -p binarycop --bin bcp -- "$@"; }

cargo build --release --offline --workspace
cargo test -q --offline --workspace

# benchmark/ is a workspace of its own: this is the step that fails when a
# name the frozen benchmark calls is renamed. Cargo may re-resolve its lock
# file; nothing under benchmark/ may change, so put it back, pass or fail.
trap 'git checkout -- benchmark/Cargo.lock' EXIT
bash benchmark/check.sh

bcp check --all-arches --json >/dev/null
bcp lint --root . --json
bcp audit --root . --json

export BENCH_SUMMARY_PATH="${BENCH_SUMMARY_PATH:-$PWD/BENCH_summary.json}"
cargo bench --offline -p bcp-bench --bench kernels
cargo bench --offline -p bcp-bench --bench kernel_gemm
cargo bench --offline -p bcp-bench --bench serve_throughput
python3 scripts/bench_gate.py "$BENCH_SUMMARY_PATH"
python3 scripts/trace_gate.py "$BENCH_SUMMARY_PATH"

# The exception budget, so a PR can state before/after: hot-path roots and
# `audit: allow(<kind>)` directives outside crates/bcp-check (whose sources
# hold the analyzer's own fixtures).
echo "bcp:hot-path roots: $(grep -rh --include='*.rs' 'bcp:hot-path' crates src \
    --exclude-dir=bcp-check | wc -l)"
echo "audit: allow directives by kind:"
grep -rhoE --include='*.rs' --exclude-dir=bcp-check 'audit: allow\([a-z]+\)' crates src \
    | sort | uniq -c
