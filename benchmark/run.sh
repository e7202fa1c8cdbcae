#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source
# (release, offline), then run it with the arguments given. Run from the
# root of the repository, so that .cargo/config.toml applies to the build.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bcp-benchmark" "$@"
