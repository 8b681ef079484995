// MetricsRegistry: named counters, gauges and latency histograms for
// machine-readable run reports. The registry supersedes the ad-hoc
// MiningStats counters as the export surface: CellPipeline absorbs
// MiningStats into it at the end of a run, adds per-stage wall/CPU
// histograms and pool utilization, and the CLI / bench_micro emit the
// registry as a stable-schema JSON report that tools/compare_bench.py
// diffs per stage.
//
// Thread-safety: all mutating calls are safe from any thread (one
// registry mutex; the PoolTaskObserver path is atomics-only so pool
// workers never contend on it). A registry is plugged into a run via
// MiningConfig::metrics (nullptr — the default — costs nothing).
//
// Histograms are latency histograms in milliseconds: samples are kept
// exactly up to a reservoir cap (percentiles are then exact
// nearest-rank values, the common case for per-stage timings), and
// log2 buckets take over beyond it (percentiles become bucket
// midpoints, still monotone and within 2x).

#ifndef FLIPPER_CORE_PIPELINE_METRICS_H_
#define FLIPPER_CORE_PIPELINE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace flipper {

class MetricsRegistry : public PoolTaskObserver {
 public:
  /// Version of the JSON report layout written by WriteJson. Bump only
  /// on breaking changes; additive fields keep the version.
  static constexpr int kSchemaVersion = 1;

  /// Exact-percentile reservoir size per histogram; log2 buckets take
  /// over past this many samples.
  static constexpr size_t kMaxExactSamples = 4096;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named monotone counter (created at 0).
  void AddCounter(const std::string& name, int64_t delta);

  /// Sets the named gauge to `value` (last write wins).
  void SetGauge(const std::string& name, double value);

  /// Records one latency sample, in milliseconds, into the named
  /// histogram.
  void ObserveMs(const std::string& name, double ms);

  /// PoolTaskObserver: accumulates queue-wait and busy time from every
  /// pool task. Lock-free (relaxed atomics); folded into the
  /// "pool.queue_wait_ms" histogram and "pool.*" counters by
  /// FinalizePool().
  void OnPoolTask(uint64_t queue_ns, uint64_t run_ns) override;

  /// Total task execution time observed via OnPoolTask, nanoseconds.
  uint64_t pool_busy_ns() const {
    return pool_busy_ns_.load(std::memory_order_relaxed);
  }
  /// Number of tasks observed via OnPoolTask.
  uint64_t pool_tasks() const {
    return pool_tasks_.load(std::memory_order_relaxed);
  }

  /// Converts the accumulated pool atomics into exported metrics:
  /// counters pool.tasks / pool.busy_ms / pool.queue_wait_ms_total and
  /// gauge pool.utilization = busy / (wall_ms * threads). Call once,
  /// after the pool has gone quiet.
  void FinalizePool(double wall_ms, int num_threads);

  struct HistogramSnapshot {
    uint64_t count = 0;
    double sum_ms = 0;
    double min_ms = 0;
    double max_ms = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
  };

  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };

  /// Consistent copy of everything recorded so far.
  Snapshot Snap() const;

  /// Reads a counter (0 when absent) — test/bench convenience.
  int64_t counter(const std::string& name) const;
  /// Reads a gauge (0 when absent).
  double gauge(const std::string& name) const;

  /// Writes the run report:
  ///   {"schema_version":1,
  ///    "counters":{name:int,...},
  ///    "gauges":{name:float,...},
  ///    "histograms":{name:{count,sum_ms,min_ms,max_ms,
  ///                        p50_ms,p95_ms,p99_ms},...}}
  /// Keys sorted, two-space indent — stable enough to diff textually.
  void WriteJson(std::ostream& out) const;

 private:
  struct Histogram {
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::vector<double> samples;   // exact reservoir (first kMaxExact)
    std::vector<uint64_t> buckets; // log2(ms) buckets, lazily sized
    HistogramSnapshot Snap() const;
  };

  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;

  std::atomic<uint64_t> pool_busy_ns_{0};
  std::atomic<uint64_t> pool_queue_ns_{0};
  std::atomic<uint64_t> pool_tasks_{0};
  std::atomic<uint64_t> pool_max_queue_ns_{0};
};

/// RAII stage timer: on destruction records wall time into
/// "stage.<name>_ms" and thread CPU time into "stage.<name>_cpu_ms".
/// Null registry => completely inert.
class ScopedStageTimer {
 public:
  ScopedStageTimer(MetricsRegistry* registry, const char* stage);
  ~ScopedStageTimer();

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  MetricsRegistry* registry_;
  const char* stage_;
  uint64_t wall_start_ns_ = 0;
  uint64_t cpu_start_ns_ = 0;
};

/// Current thread's consumed CPU time in nanoseconds (0 where
/// unsupported).
uint64_t ThreadCpuNowNanos();

/// Nearest-rank `q`-quantile (q in [0, 1]) of ascending `sorted`: the
/// ceil(q * n)-th smallest value, or 0 when empty.
double NearestRank(const std::vector<double>& sorted, double q);

}  // namespace flipper

#endif  // FLIPPER_CORE_PIPELINE_METRICS_H_
