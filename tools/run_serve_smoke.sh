#!/usr/bin/env bash
# Serve smoke: end-to-end daemon lifecycle check. Generates a store
# (and checks `inspect` reports it as a zero-copy mapped v1 store),
# starts `flipper_cli serve` in the background (with a pidfile), waits
# for readiness via `query --op ping` and asserts the daemon speaks
# the expected protocol schema, drives `loadgen` with
# byte-verification against solo in-process mines (--expect-from),
# requires at least one verified cache hit and a non-zero client
# latency median, storms the socket with
# fault-injected connections (`loadgen --chaos`) and requires the
# daemon to stay healthy, checks that the idle daemon's thread count
# stays within nproc + 2 (`/proc/<pid>/status`), parses the daemon's
# `stats` JSON (latency percentiles included, and at most one mine per
# mining spec), asks for `shutdown`
# over the protocol and asserts the daemon exits cleanly with zero
# failed queries and a removed pidfile. A second short-lived daemon then checks the other
# shutdown path: SIGTERM must drain gracefully, write the same
# shutdown summary, and clean up its pidfile.
#
# Usage:
#   tools/run_serve_smoke.sh                # configure+build, then run
#   tools/run_serve_smoke.sh --cli <path>   # use this binary directly
#                                           # (what the ctest does)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

CLI_BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --cli)
      CLI_BIN="${2:?--cli needs a path}"
      shift 2
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

if [[ -z "$CLI_BIN" ]]; then
  BUILD_DIR="$REPO_ROOT/build"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target flipper_cli >/dev/null
  CLI_BIN="$BUILD_DIR/flipper_cli"
fi

WORK_DIR="$(mktemp -d "${TMPDIR:-/tmp}/flipper_serve_smoke.XXXXXX")"
SOCKET="$WORK_DIR/serve.sock"
SERVE_PID=""
cleanup() {
  if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

echo "== serve smoke: datagen =="
"$CLI_BIN" datagen groceries "$WORK_DIR/g.fdb" --txns 3000
# datagen writes the raw v1 layout, which opens as zero-copy mmap views.
INSPECT_OUT="$("$CLI_BIN" inspect "$WORK_DIR/g.fdb")"
grep -q "FlipperStore v1, .* (mmap)$" <<<"$INSPECT_OUT" || {
  echo "FAIL: the datagen store is not a mapped v1 store:" >&2
  echo "$INSPECT_OUT" >&2
  exit 1
}

echo "== serve smoke: start daemon =="
PIDFILE="$WORK_DIR/serve.pid"
"$CLI_BIN" serve --socket "$SOCKET" --stores "g=$WORK_DIR/g.fdb" \
  --pidfile "$PIDFILE" --max-deadline-ms 600000 \
  >"$WORK_DIR/serve.log" 2>&1 &
SERVE_PID=$!

# Readiness: retry-connect until the daemon answers a ping, then
# assert it speaks the protocol schema this client was built against
# (ping meta lines land on stderr as `# key value`).
PING_OUT="$("$CLI_BIN" query --socket "$SOCKET" --op ping \
  --wait-ms 30000 2>&1)"
grep -q "^# schema 1$" <<<"$PING_OUT" || {
  echo "FAIL: ping did not advertise protocol schema 1:" >&2
  echo "$PING_OUT" >&2
  exit 1
}
grep -q "^# uptime_s " <<<"$PING_OUT" || {
  echo "FAIL: ping carried no uptime" >&2
  exit 1
}
if [[ ! -s "$PIDFILE" ]] || ! kill -0 "$(cat "$PIDFILE")" 2>/dev/null
then
  echo "FAIL: pidfile missing or names a dead process" >&2
  exit 1
fi

echo "== serve smoke: loadgen (byte-verified against solo mines) =="
LOADGEN_OUT="$("$CLI_BIN" loadgen --socket "$SOCKET" --store g \
  --requests 48 --connections 8 --expect-from "$WORK_DIR/g.fdb")"
echo "$LOADGEN_OUT"
grep -q " 0 failed, 0 mismatched, " <<<"$LOADGEN_OUT" || {
  echo "FAIL: loadgen reported failures or body mismatches" >&2
  exit 1
}
CACHE_HITS="$(sed -n 's/.*mismatched, \([0-9]*\) cache hits.*/\1/p' \
  <<<"$LOADGEN_OUT")"
if [[ -z "$CACHE_HITS" || "$CACHE_HITS" -lt 1 ]]; then
  echo "FAIL: expected at least one verified cache hit, got" \
    "'${CACHE_HITS:-none}'" >&2
  exit 1
fi
# Client latencies are sub-millisecond-resolved: a cache-hit-heavy run
# must still report a non-zero median.
LOADGEN_P50="$(sed -n 's/^latency ms: p50 \([0-9.]*\),.*/\1/p' \
  <<<"$LOADGEN_OUT")"
if ! awk -v p50="${LOADGEN_P50:-0}" 'BEGIN { exit !(p50 > 0) }'; then
  echo "FAIL: expected loadgen latency p50 > 0, got" \
    "'${LOADGEN_P50:-none}'" >&2
  exit 1
fi

echo "== serve smoke: chaos (fault-injected connections) =="
# Kill and stall connections at random byte offsets in both
# directions; the daemon must shrug every one off and still answer a
# byte-verified query afterwards (loadgen's post-storm health check).
CHAOS_OUT="$("$CLI_BIN" loadgen --socket "$SOCKET" --store g \
  --requests 16 --connections 4 --deadline-ms 60000 \
  --chaos 64 --chaos-seed 7 --expect-from "$WORK_DIR/g.fdb")"
echo "$CHAOS_OUT"
grep -q " 0 failed, 0 mismatched, " <<<"$CHAOS_OUT" || {
  echo "FAIL: chaos loadgen reported failures or mismatches" >&2
  exit 1
}
grep -q "daemon healthy$" <<<"$CHAOS_OUT" || {
  echo "FAIL: daemon unhealthy after the fault-injection storm" >&2
  exit 1
}

echo "== serve smoke: idle thread count =="
# Connections hold no threads, and a query's thread exits when it
# finishes: once the legs above are done (torn chaos connections may
# take a moment to close), the daemon holds only its main, event-loop
# and signal threads plus the shared pool's nproc - 1 workers. The one
# poll(2) loop replaced the accept and hang-up watcher threads.
if [[ -r "/proc/$SERVE_PID/status" ]]; then
  MAX_THREADS=$(( $(nproc) + 2 ))
  THREADS=""
  for _ in $(seq 1 100); do
    THREADS="$(awk '/^Threads:/ {print $2}' "/proc/$SERVE_PID/status")"
    [[ "$THREADS" -le "$MAX_THREADS" ]] && break
    sleep 0.05
  done
  if [[ "$THREADS" -gt "$MAX_THREADS" ]]; then
    echo "FAIL: idle daemon holds $THREADS threads (max $MAX_THREADS)" >&2
    exit 1
  fi
  echo "idle daemon threads: $THREADS (max $MAX_THREADS)"
fi

echo "== serve smoke: stats =="
STATS_JSON="$WORK_DIR/stats.json"
"$CLI_BIN" query --socket "$SOCKET" --op stats 2>/dev/null \
  >"$STATS_JSON"
python3 - "$STATS_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
assert stats["schema_version"] == 1, stats
counters = stats["counters"]
assert counters["queries.total"] >= 48, counters
assert counters.get("queries.failed", 0) == 0, counters
assert counters["cache.hits"] >= 1, counters
# loadgen's 4 variants are 3 mining specs (variant 2 differs from
# variant 1 only in topk and threads): each spec is mined once, and
# variant 2's first sight renders variant 1's list (or the reverse).
assert counters.get("cache.mines", 0) <= 3, counters
assert counters.get("cache.pattern_hits", 0) >= 1, counters
latency = stats["histograms"]["query.latency_ms"]
assert latency["count"] >= 48, latency
assert 0 <= latency["p50_ms"] <= latency["p95_ms"] <= latency["max_ms"], \
    latency
print(f"stats ok: {counters['queries.total']} queries, "
      f"{counters['cache.hits']} cache hits, "
      f"{counters.get('cache.mines', 0)} mines, latency p50 "
      f"{latency['p50_ms']:.3f} ms / p95 {latency['p95_ms']:.3f} ms")
EOF

echo "== serve smoke: shutdown =="
"$CLI_BIN" query --socket "$SOCKET" --op shutdown
if ! wait "$SERVE_PID"; then
  echo "FAIL: daemon exited non-zero" >&2
  cat "$WORK_DIR/serve.log" >&2
  exit 1
fi
SERVE_PID=""
grep -q "^shutdown: " "$WORK_DIR/serve.log" || {
  echo "FAIL: daemon wrote no shutdown summary" >&2
  cat "$WORK_DIR/serve.log" >&2
  exit 1
}
if [[ -e "$PIDFILE" ]]; then
  echo "FAIL: pidfile survived a clean shutdown" >&2
  exit 1
fi

echo "== serve smoke: SIGTERM drains gracefully =="
SOCKET2="$WORK_DIR/serve2.sock"
PIDFILE2="$WORK_DIR/serve2.pid"
"$CLI_BIN" serve --socket "$SOCKET2" --stores "g=$WORK_DIR/g.fdb" \
  --pidfile "$PIDFILE2" >"$WORK_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
"$CLI_BIN" query --socket "$SOCKET2" --op ping --wait-ms 30000 \
  >/dev/null 2>&1
kill -TERM "$(cat "$PIDFILE2")"
if ! wait "$SERVE_PID"; then
  echo "FAIL: daemon exited non-zero after SIGTERM" >&2
  cat "$WORK_DIR/serve2.log" >&2
  exit 1
fi
SERVE_PID=""
grep -q "^shutdown: " "$WORK_DIR/serve2.log" || {
  echo "FAIL: SIGTERM left no shutdown summary" >&2
  cat "$WORK_DIR/serve2.log" >&2
  exit 1
}
if [[ -e "$PIDFILE2" ]]; then
  echo "FAIL: pidfile survived SIGTERM shutdown" >&2
  exit 1
fi
echo "serve smoke OK"
