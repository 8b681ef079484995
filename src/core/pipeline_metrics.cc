#include "core/pipeline_metrics.h"

#include <algorithm>
#include <cmath>
#include <ctime>

#include "common/string_util.h"
#include "common/trace.h"

namespace flipper {

namespace {

// Log2 bucket index for a millisecond value: bucket 0 holds
// (0, 2^-20] ms (~1 ns) and each bucket doubles; 64 buckets reach
// ~2^43 ms (~270 years), so clamping never matters in practice.
constexpr int kNumBuckets = 64;
constexpr int kBucketOffset = 20;

int BucketIndex(double ms) {
  if (!(ms > 0)) return 0;
  const int exp = static_cast<int>(std::floor(std::log2(ms)));
  return std::clamp(exp + kBucketOffset, 0, kNumBuckets - 1);
}

// Geometric midpoint of bucket `i` — the representative value reported
// for percentiles once the exact reservoir has overflowed.
double BucketMid(int i) {
  return std::exp2(i - kBucketOffset + 0.5);
}

double BucketRank(const std::vector<uint64_t>& buckets, uint64_t count,
                  double q) {
  const auto rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  uint64_t seen = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    seen += buckets[i];
    if (seen >= rank) return BucketMid(i);
  }
  return buckets.empty() ? 0 : BucketMid(static_cast<int>(buckets.size()) - 1);
}

void WriteJsonNumber(std::ostream& out, double v) {
  // Fixed precision keeps the report locale-independent and diffable.
  out << FormatDouble(v, 6);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

uint64_t ThreadCpuNowNanos() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

void MetricsRegistry::AddCounter(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::ObserveMs(const std::string& name, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram& h = histograms_[name];
  if (h.count == 0) {
    h.min = ms;
    h.max = ms;
  } else {
    h.min = std::min(h.min, ms);
    h.max = std::max(h.max, ms);
  }
  ++h.count;
  h.sum += ms;
  if (h.samples.size() < kMaxExactSamples) h.samples.push_back(ms);
  if (h.buckets.empty()) h.buckets.assign(kNumBuckets, 0);
  ++h.buckets[static_cast<size_t>(BucketIndex(ms))];
}

void MetricsRegistry::OnPoolTask(uint64_t queue_ns, uint64_t run_ns) {
  pool_busy_ns_.fetch_add(run_ns, std::memory_order_relaxed);
  pool_queue_ns_.fetch_add(queue_ns, std::memory_order_relaxed);
  pool_tasks_.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = pool_max_queue_ns_.load(std::memory_order_relaxed);
  while (queue_ns > prev && !pool_max_queue_ns_.compare_exchange_weak(
                                prev, queue_ns, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::FinalizePool(double wall_ms, int num_threads) {
  const uint64_t tasks = pool_tasks_.load(std::memory_order_relaxed);
  const uint64_t busy_ns = pool_busy_ns_.load(std::memory_order_relaxed);
  const uint64_t queue_ns = pool_queue_ns_.load(std::memory_order_relaxed);
  const uint64_t max_queue_ns =
      pool_max_queue_ns_.load(std::memory_order_relaxed);
  AddCounter("pool.tasks", static_cast<int64_t>(tasks));
  SetGauge("pool.busy_ms", static_cast<double>(busy_ns) / 1e6);
  SetGauge("pool.queue_wait_ms_total", static_cast<double>(queue_ns) / 1e6);
  SetGauge("pool.queue_wait_ms_max", static_cast<double>(max_queue_ns) / 1e6);
  if (tasks > 0) {
    ObserveMs("pool.queue_wait_ms",
              static_cast<double>(queue_ns) / static_cast<double>(tasks) /
                  1e6);
  }
  const double capacity_ms = wall_ms * std::max(1, num_threads);
  SetGauge("pool.utilization",
           capacity_ms > 0
               ? std::min(1.0, static_cast<double>(busy_ns) / 1e6 /
                                   capacity_ms)
               : 0.0);
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::Histogram::Snap() const {
  HistogramSnapshot snap;
  snap.count = count;
  snap.sum_ms = sum;
  snap.min_ms = min;
  snap.max_ms = max;
  if (count == 0) return snap;
  if (count <= samples.size()) {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    snap.p50_ms = NearestRank(sorted, 0.50);
    snap.p95_ms = NearestRank(sorted, 0.95);
    snap.p99_ms = NearestRank(sorted, 0.99);
  } else {
    snap.p50_ms = BucketRank(buckets, count, 0.50);
    snap.p95_ms = BucketRank(buckets, count, 0.95);
    snap.p99_ms = BucketRank(buckets, count, 0.99);
  }
  return snap;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist.Snap();
  }
  return snap;
}

int64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  const Snapshot snap = Snap();
  out << "{\n  \"schema_version\": " << kSchemaVersion << ",\n";
  out << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": ";
    WriteJsonNumber(out, value);
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": {\"count\": " << hist.count << ", \"sum_ms\": ";
    WriteJsonNumber(out, hist.sum_ms);
    out << ", \"min_ms\": ";
    WriteJsonNumber(out, hist.min_ms);
    out << ", \"max_ms\": ";
    WriteJsonNumber(out, hist.max_ms);
    out << ", \"p50_ms\": ";
    WriteJsonNumber(out, hist.p50_ms);
    out << ", \"p95_ms\": ";
    WriteJsonNumber(out, hist.p95_ms);
    out << ", \"p99_ms\": ";
    WriteJsonNumber(out, hist.p99_ms);
    out << "}";
    first = false;
  }
  out << (first ? "}\n" : "\n  }\n");
  out << "}\n";
}

ScopedStageTimer::ScopedStageTimer(MetricsRegistry* registry,
                                   const char* stage)
    : registry_(registry), stage_(stage) {
  if (registry_ == nullptr) return;
  wall_start_ns_ = trace::NowNanos();
  cpu_start_ns_ = ThreadCpuNowNanos();
}

ScopedStageTimer::~ScopedStageTimer() {
  if (registry_ == nullptr) return;
  const double wall_ms =
      static_cast<double>(trace::NowNanos() - wall_start_ns_) / 1e6;
  const double cpu_ms =
      static_cast<double>(ThreadCpuNowNanos() - cpu_start_ns_) / 1e6;
  const std::string base = std::string("stage.") + stage_;
  registry_->ObserveMs(base + "_ms", wall_ms);
  registry_->ObserveMs(base + "_cpu_ms", cpu_ms);
}

}  // namespace flipper
