#!/usr/bin/env bash
# What CI's build-and-test and lint jobs gate on, in one local command:
# tier-1 (`cargo build --release && cargo test -q`, which is the whole
# workspace), `cargo fmt --check` and both clippy invocations of ci.yml,
# the frozen benchmark's smoke, the source analyzers and the perf gate, so
# local green means CI green. Run from anywhere inside the repository;
# takes ~12 min on two cores from a clean checkout (the two clippy passes
# are ~30 s of that, the three traced benchmark runs ~4 min, the fresh
# paper ledger ~4-5 min).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
bcp() { cargo run --release --offline -q -p binarycop --bin bcp -- "$@"; }

cargo build --release --offline
cargo test -q --offline

# CI's lint job: formatting and both clippy invocations (the second is the
# strict-arithmetic crate list of ci.yml, verbatim).
cargo fmt --check
# Deleted stand-ins and crates stay deleted (`set -e` does not see a
# `!`-negated status, hence the `if`).
if grep -rnE 'parking_lot|crossbeam|criterion|bcp-bench|bcp-telemetry' Cargo.lock Cargo.toml crates/*/Cargo.toml; then
    echo "verify: a deleted stand-in or crate is named in a manifest again" >&2
    exit 1
fi
cargo clippy --offline --all-targets -- -D warnings
cargo clippy --offline -p bcp-check -p bcp-guard -p bcp-trace -p bcp-serve -p bcp-gateway \
    -p bcp-sync -p bcp-bitpack -p bcp-finn --all-targets -- -D warnings

# benchmark/ is a workspace of its own: this is the step that fails when a
# name the frozen benchmark calls is renamed. Cargo may re-resolve its lock
# file; nothing under benchmark/ may change, so put it back, pass or fail.
trap 'git checkout -- benchmark/Cargo.lock' EXIT
bash benchmark/check.sh

bcp check --all-arches --json >/dev/null
bcp lint --root . --json
# The exception budget reads the audit's own counts: hot-path roots and
# `audit: allow(<kind>)` directives by kind; fails if any grew.
bcp audit --root . --json > target/audit-report.json
python3 scripts/exception_budget.py target/audit-report.json

# The perf gate reads the benchmark's own paired per-layer metrics, each
# bound judged on the median of three traced runs of every workload
# (12 x 20 s).
python3 benchmark/suite.py --runs 0 --traced 3 --out benchmark/out/gate.json
python3 scripts/perf_gate.py benchmark/out/gate.json

# The paper-side ledger: the newest committed `experiments … --json` file
# must keep Table II's ordering and float/deployed agreement, and equal the
# one before it outside `timings` wherever the recipe is unchanged (no
# training here).
python3 scripts/paper_gate.py $(ls PAPER_*.json | sort -Vr | head -2)

# Trained bits: a quick ledger trained from this checkout (~4-5 min) must
# equal the newest committed one outside `timings`, as in CI.
cargo run --release --offline -q -p binarycop --bin experiments -- all --quick --json target/paper-fresh.json
python3 scripts/paper_gate.py target/paper-fresh.json $(ls PAPER_*.json | sort -Vr | head -1)
