#!/usr/bin/env bash
# Memory-checks the storage and recovery paths (mmap'd reader views,
# the in-place column block checks, the fault-injected crash sweeps)
# and the support-counting index arithmetic under AddressSanitizer +
# UBSan. Uses the `asan` CMake preset when available, falling back to
# explicit -D flags on older CMake.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-asan

# The byte-pushing suites: storage_test parses adversarial section
# tables and multi-block columns, crash_recovery_test replays every
# torn prefix a crash can leave (each one is a fresh parse of attacker-
# shaped bytes), tools_test drives validate/repair over corrupt files,
# and the fuzz harness stirs random datasets through fresh and
# appended stores. The service suites push network-
# shaped bytes instead: protocol_fuzz_test mutates wire payloads and
# torn frames, service_test runs the daemon end to end, and
# service_robustness_test adds deadline unwinds, mid-mine hangups and
# a fault-injected connection storm — all paths where a leak or
# over-read would hide behind "the query just failed". The counting
# suites index raw arrays: counting_test and trie_invariance_test drive
# the dense layout's colex indices, rank table and per-shard rank lists
# and the trie's arena walk, where an off-by-one over-reads silently.
# scan_counter_test and cell_pipeline_test cover the occurring-
# combination scans: the hash tables' memcpy/memcmp arena keys and the
# pooled scratch handed across threads between scans. thread_pool_test
# covers the batch queue's lifetimes: task captures handed to workers,
# batches that two submitters' joins claim from, and the handle that
# outlives a batch's last task.
SUITES=(storage_test crash_recovery_test tools_test
        fuzz_differential_test protocol_fuzz_test service_test
        service_robustness_test counting_test trie_invariance_test
        scan_counter_test cell_pipeline_test thread_pool_test)

# Instrumented fuzz rounds are slower; a few are enough to cover the
# store paths (override by exporting FLIPPER_FUZZ_ITERS).
export FLIPPER_FUZZ_ITERS="${FLIPPER_FUZZ_ITERS:-3}"

if cmake --preset asan >/dev/null 2>&1; then
  cmake --build --preset asan -j "$(nproc)" --target "${SUITES[@]}"
else
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFLIPPER_SANITIZE=address,undefined
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${SUITES[@]}"
fi

status=0
for suite in "${SUITES[@]}"; do
  echo "== asan: $suite =="
  # halt_on_error keeps the first report readable; detect_leaks guards
  # the reader/writer cleanup paths exercised by the crash sweeps.
  if ! ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
      UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
      "$BUILD_DIR/$suite"; then
    status=1
  fi
done
exit $status
