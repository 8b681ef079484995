#!/usr/bin/env bash
# Developer inner loop: build and run every suite except the
# randomized fuzz harnesses (`ctest -LE fuzz`). The fuzz label stays in
# the full `ctest` run and in CI; this script is for quick iteration.
# New suites are picked up automatically (tests/*_test.cc are globbed
# into ctest — the observability suites trace_test,
# pipeline_metrics_test and stats_test, plus the
# compare_bench_selftest tooling fixtures, are all in this run); the
# `bench` label (the bench_micro smoke) stays in this run too — it is
# CI-sized via FLIPPER_BENCH_SCALE — and so does the `fidelity` label
# (fidelity_test: the paper's count claims on a 2,000-transaction
# Quest store, about 2 s).
#
# Usage: tools/run_fast.sh [label]
#   label — optional ctest label to restrict to (unit, storage,
#           parallel, e2e, bench, fidelity); default runs everything
#           but fuzz.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

cd "$BUILD_DIR"
if [[ $# -ge 1 ]]; then
  exec ctest --output-on-failure -j "$(nproc)" -L "$1" -LE fuzz
fi
exec ctest --output-on-failure -j "$(nproc)" -LE fuzz
