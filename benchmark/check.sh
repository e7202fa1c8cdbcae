#!/usr/bin/env bash
# Smoke test, the hook a CI job can call: one second of every workload,
# untraced and traced. suite.py fails unless each result line carries
# exactly the metric names and units BENCHMARK.json declares, reports
# `correct`, and counts no failed answer.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
python3 benchmark/suite.py --out benchmark/out/check.json --runs 1 --traced 1 --seconds 1
