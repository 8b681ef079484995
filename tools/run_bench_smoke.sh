#!/usr/bin/env bash
# Bench smoke: build Release (unless handed an already-built binary via
# --bench, as the `bench_smoke` CTest does), run bench_micro at a small
# scale, and validate that bench_results/bench_micro.json parses and
# contains the perf-trajectory cases this repo tracks — in particular
# the trie_probe_kernels, row_trie_reuse and scan_counter_arena series
# with non-zero measurements.
#
# With --record the validated run is additionally distilled into a
# committed trajectory snapshot (median/p95 wall + peak RSS per case,
# host fingerprint; see tools/compare_bench.py) and self-compared
# through the regression gate, so the recorded file is known-good.
#
# Usage:
#   tools/run_bench_smoke.sh                  # configure+build, run
#   tools/run_bench_smoke.sh --bench <path>   # run this binary directly
#   tools/run_bench_smoke.sh --record [<out>] # ... + snapshot (default
#                                             #     <repo>/BENCH_7.json)
#   tools/run_bench_smoke.sh --record --force # overwrite an existing
#                                             # snapshot deliberately
#
# --record refuses to overwrite an existing snapshot unless --force is
# given: committed BENCH_<n>.json files are the perf trajectory, and
# clobbering one by rerunning the smoke on a different machine would
# silently rewrite history.
#
# FLIPPER_BENCH_SCALE (default 0.05 here) shrinks the workloads so the
# smoke stays CI-sized; rerun without it for real numbers.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

BENCH_BIN=""
RECORD_OUT=""
FORCE=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bench)
      BENCH_BIN="${2:?--bench needs a path}"
      shift 2
      ;;
    --record)
      if [[ $# -gt 1 && "${2:0:2}" != "--" ]]; then
        RECORD_OUT="$2"
        shift 2
      else
        RECORD_OUT="$REPO_ROOT/BENCH_7.json"
        shift
      fi
      ;;
    --force)
      FORCE=1
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

if [[ -n "$RECORD_OUT" && -e "$RECORD_OUT" && "$FORCE" -ne 1 ]]; then
  echo "bench record FAILED: $RECORD_OUT already exists;" \
       "pass --force to overwrite the committed snapshot" >&2
  exit 1
fi

export FLIPPER_BENCH_SCALE="${FLIPPER_BENCH_SCALE:-0.05}"

if [[ -z "$BENCH_BIN" ]]; then
  cd "$REPO_ROOT"
  BUILD_DIR=build
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_micro
  cd "$BUILD_DIR"
  BENCH_BIN=./bench_micro
fi

"$BENCH_BIN"

JSON=bench_results/bench_micro.json
if [[ ! -f "$JSON" ]]; then
  echo "bench smoke FAILED: $JSON was not written" >&2
  exit 1
fi

# Validation: parse the JSON and check the tracked cases exist with
# non-zero measurements. python3 when available, a grep fallback
# otherwise (the repo vendors no JSON parser).
if command -v python3 >/dev/null 2>&1; then
  python3 - "$JSON" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

cases = {c["name"]: c for c in doc["cases"]}
required_prefixes = [
    "trie_probe_kernels",
    "row_trie_reuse",
    "scan_counter_arena",
    "miner_full",
    "horizontal_scan_threads_1",
]
failures = []
for prefix in required_prefixes:
    hits = [c for name, c in cases.items() if name.startswith(prefix)]
    if not hits:
        failures.append(f"no case named {prefix}*")
        continue
    if all(c.get("median_ms", 0) <= 0 or c.get("rows_per_sec", 0) <= 0
           for c in hits):
        failures.append(f"{prefix}*: every case measured zero")
    if any("p95_ms" not in c or "peak_rss_bytes" not in c for c in hits):
        failures.append(f"{prefix}*: missing p95_ms/peak_rss_bytes")

arena = cases.get("scan_counter_arena")
if arena is not None and arena.get("warm_grow_events", -1) != 0:
    failures.append("scan_counter_arena: warm reps allocated")

if failures:
    print("bench smoke FAILED:")
    for f in failures:
        print(" -", f)
    sys.exit(1)
print(f"bench smoke OK: {len(cases)} cases validated")
EOF
else
  echo "python3 unavailable; falling back to grep validation" >&2
  for prefix in trie_probe_kernels row_trie_reuse scan_counter_arena; do
    if ! grep -q "\"name\": \"$prefix" "$JSON"; then
      echo "bench smoke FAILED: no case named $prefix*" >&2
      exit 1
    fi
  done
  echo "bench smoke OK (grep validation)"
fi

if [[ -n "$RECORD_OUT" ]]; then
  if ! command -v python3 >/dev/null 2>&1; then
    echo "bench record FAILED: python3 required for --record" >&2
    exit 1
  fi
  python3 "$REPO_ROOT/tools/compare_bench.py" record \
    --source "$JSON" --out "$RECORD_OUT"
  # A snapshot must pass its own gate before it is worth committing.
  python3 "$REPO_ROOT/tools/compare_bench.py" compare \
    "$RECORD_OUT" "$RECORD_OUT"
  echo "bench record OK: $RECORD_OUT"
fi
