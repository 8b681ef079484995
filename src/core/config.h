// Mining configuration: thresholds, measure, pruning stack, execution
// knobs.

#ifndef FLIPPER_CORE_CONFIG_H_
#define FLIPPER_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "measures/measure.h"

namespace flipper {

class CancelToken;
class MetricsRegistry;
class ThreadPool;

/// Pruning layers on top of support-based pruning. The paper's
/// evaluation series map to:
///   BASIC                 -> NaiveMiner (per-level Apriori, §5)
///   FLIPPING PRUNING      -> {flipping=true}
///   FLIPPING+TPG          -> {flipping=true, tpg=true}
///   FLIPPING+TPG+SIBP     -> {flipping=true, tpg=true, sibp=true}
struct PruningOptions {
  /// Grow rows >= 2 only from frequent, labeled, chain-alive parents
  /// (§4.2.2). When false, rows grow from every frequent parent.
  bool flipping = true;
  /// Termination of pattern growth, Theorem 3 (§4.3.1).
  bool tpg = true;
  /// Single-item based pruning, Theorem 2 + Corollary 2 (§4.3.2).
  bool sibp = true;

  static PruningOptions Basic() { return {false, false, false}; }
  static PruningOptions FlippingOnly() { return {true, false, false}; }
  static PruningOptions FlippingTpg() { return {true, true, false}; }
  static PruningOptions Full() { return {true, true, true}; }

  std::string ToString() const;
};

struct MiningConfig {
  /// Positive / negative correlation thresholds (Definition 1).
  double gamma = 0.3;
  double epsilon = 0.1;

  /// Per-level minimum supports as fractions of |D|; index 0 is level 1.
  /// Must be non-increasing (paper §2.2). If fewer entries than H are
  /// given the last one is reused for deeper levels.
  std::vector<double> min_support;

  /// Null-invariant correlation measure; Kulczynski throughout the
  /// paper's experiments.
  MeasureKind measure = MeasureKind::kKulczynski;

  PruningOptions pruning = PruningOptions::Full();

  /// Worker threads for support counting and view materialization;
  /// 0 means "all hardware threads". Results are identical for any
  /// value (sharded work reduces deterministically).
  int num_threads = 0;

  /// Upper bound on itemset size; 0 means "auto" (number of level-1
  /// nodes, max generalized transaction width and kMaxItemsetSize).
  int max_itemset_size = 0;

  /// Safety valve: a cell generating more candidates than this aborts
  /// with ResourceExhausted (mirrors the paper's BASIC memory blowups
  /// without taking the host down).
  uint64_t max_candidates_per_cell = 50'000'000;

  /// Allow the scan-driven cell strategy (enumerate the k-subsets the
  /// data actually contains) when the cartesian children product would
  /// be larger. Disable to force pure cartesian generation — used by
  /// the strategy ablation bench; results are identical either way.
  bool enable_scan_cells = true;

  /// Optional metrics sink (core/pipeline_metrics.h). When set, the
  /// pipeline records per-stage wall/CPU histograms, pool utilization
  /// and the MiningStats counters into it; null (the default) records
  /// nothing and costs nothing. Not owned; must outlive the run.
  /// Mining output is byte-identical with or without it.
  MetricsRegistry* metrics = nullptr;

  /// Optional cooperative-cancellation token (common/cancellation.h).
  /// The pipeline, counters and scan cells poll it at segment/batch
  /// granularity; when it fires the run unwinds through the error path
  /// (futures joined, pooled scratch returned) and Run returns the
  /// token's DeadlineExceeded/Cancelled status. Not owned; must outlive
  /// the run. An un-fired token never changes mining output — results
  /// are byte-identical with or without one (fuzz-enforced).
  const CancelToken* cancel = nullptr;

  /// Optional borrowed worker pool (common/thread_pool.h), e.g. a
  /// daemon's one pool lent to every query. When set the run submits
  /// its shards there instead of starting a pool of its own, and its
  /// shard count is min(num_threads budget, pool size), so output is
  /// byte-identical either way. The pool may be shared by concurrent
  /// runs; each joins only its own batches. Not owned; must outlive
  /// the run. Not a user option.
  ThreadPool* pool = nullptr;

  /// Checks gamma/epsilon ordering, threshold monotonicity and ranges.
  Status Validate() const;

  /// Minimum support count at `level` (1-based) for a database of
  /// `num_txns` transactions: ceil(theta_h * |D|), at least 1.
  uint32_t MinCount(int level, uint32_t num_txns) const;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_CONFIG_H_
