#!/usr/bin/env bash
# Race-checks the parallel paths (thread pool, sharded counting and
# the cell pipeline's pooled count scans) under ThreadSanitizer. Uses
# the `tsan` CMake preset when available, falling back to explicit -D
# flags on older CMake.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-tsan

# The parallel suites (counting_test compares the counter with and
# without a 4-thread pool; level_views_test runs the sharded one-pass
# view build and its per-level compaction at 1/2/4/hw threads;
# cell_pipeline_test mines at 1/2/4/hw threads; storage_test mines
# borrowed mmap views at 4 threads; the fuzz harness drives the
# sharded scans over text, fresh and appended stores, and four
# concurrent miners over one appended store's shared views;
# trie_invariance_test exercises the thread × input grid, every forced
# probe kernel, and the counter's pooled trie reuse across async
# counts; trace_test and pipeline_metrics_test
# hammer the observability layer's concurrent span recording and the
# pool-task observer from many threads — the lock-free per-thread
# buffers MUST go through TSan; service_test runs the serve daemon's
# event loop and concurrent queries over shared store views end to
# end, every query on the daemon's one shared pool;
# service_robustness_test races cancel tokens against mid-count
# deadline checks, the loop's hang-up cancels and FIFO hand-offs
# against running query threads and fd reuse, and graceful drain
# against in-flight queries — the cancellation plumbing's relaxed
# atomics MUST go through TSan; thread_pool_test
# overlaps two submitters' batches on one pool); everything else is
# single-threaded and only slows the instrumented run down.
SUITES=(thread_pool_test counting_test parallel_counting_test
        level_views_test
        cell_pipeline_test
        storage_test fuzz_differential_test
        trie_invariance_test trace_test pipeline_metrics_test
        service_test service_robustness_test)

# Instrumented fuzz rounds are ~20x slower; a few are enough to race-
# check the sharded scans (override by exporting FLIPPER_FUZZ_ITERS).
export FLIPPER_FUZZ_ITERS="${FLIPPER_FUZZ_ITERS:-3}"

if cmake --preset tsan >/dev/null 2>&1; then
  cmake --build --preset tsan -j "$(nproc)" --target "${SUITES[@]}"
else
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFLIPPER_SANITIZE=thread
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${SUITES[@]}"
fi

status=0
for suite in "${SUITES[@]}"; do
  echo "== tsan: $suite =="
  # halt_on_error keeps the first race's report readable.
  if ! TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      "$BUILD_DIR/$suite"; then
    status=1
  fi
done
exit $status
