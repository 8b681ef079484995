// CellPipeline: the cell-execution driver of the Flipper algorithm
// (Algorithm 1). It visits the cells Q(h,k) in the paper's order —
// the two ceiling rows zigzag so TPG always sees two vertically
// consecutive cells, then rows 3..H run left to right — and runs each
// cell through three stages before the next one starts:
//
//   plan     (CellPlanner)    candidate generation, strategy selection
//   count    (SupportCounter) one sharded database scan on the pool:
//                             of the cell's same-size candidates, or,
//                             for a scan-driven cell, of every
//                             occurring k-combination of its
//                             participating items
//   evaluate (CellEvaluator)  correlation, labels, parent links
//
// after which the driver applies SIBP and the TPG stop test. Two rows
// are resident in full, completed rows evict chain-dead itemsets, and
// a retired row keeps only the chain-alive rows the patterns' parent
// links walk through.
// The count stage is the only parallel one: its shards run on the
// pool, so mining output is bit-identical for any thread count. A
// subset filter drops candidates with a known-infrequent subset:
// before the count for generated candidates, after it (with the
// parent-eligibility check) for a scan-driven cell's combinations.

#ifndef FLIPPER_CORE_CELL_PIPELINE_H_
#define FLIPPER_CORE_CELL_PIPELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/cell.h"
#include "core/cell_evaluator.h"
#include "core/cell_planner.h"
#include "core/config.h"
#include "core/level_views.h"
#include "core/mining_result.h"
#include "core/support_counting.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

class CellPipeline {
 public:
  CellPipeline(const Taxonomy& taxonomy, const MiningConfig& config)
      : tax_(taxonomy), config_(config) {}

  /// One full mining run over `db`.
  Result<MiningResult> Execute(const TransactionDb& db) {
    return Execute(db, nullptr);
  }

  /// Same run over pre-built (shared, read-only) level views of `db`.
  /// A non-null `shared_views` skips the per-run views build: the
  /// pipeline only reads them (they are immutable after Build), so any
  /// number of concurrent pipelines may borrow one LevelViews
  /// instance, on one shared pool (MiningConfig::pool) or on pools of
  /// their own. Results are bit-identical to the owned-views path —
  /// shard counts derive from this run's thread budget, never from
  /// whoever built the views or from the size of a borrowed pool. The
  /// views must describe exactly `db` and outlive the call.
  Result<MiningResult> Execute(const TransactionDb& db,
                               const LevelViews* shared_views);

 private:
  /// Runs Q(h,k) through plan, count and evaluate, and commits its
  /// stats. `parent` is Q(h-1,k) (null for row 1) and `prev_in_row` is
  /// Q(h,k-1) (null at k == 2).
  Result<Cell> RunCell(int h, int k, const Cell* parent,
                       const Cell* prev_in_row);

  Status TruncatedError(int h, int k) const;

  /// Cooperative-cancellation poll point. OK while config_.cancel is
  /// null or un-fired (one relaxed load — the hot case); once the
  /// token fires this records the partial-run MiningStats into the
  /// metrics sink and returns the token's DeadlineExceeded/Cancelled
  /// status, which unwinds Execute through the normal error path
  /// (counter scratch returns to its pool via the count finalizer).
  Status CheckCancel();

  /// Theorem-3 premise over two vertically consecutive cells.
  bool TpgFires(const Cell& upper, const Cell& lower) const {
    return config_.pruning.tpg && upper.AllNonPositive() &&
           lower.AllNonPositive();
  }

  /// Evicts rows a completed row of M no longer needs: chain-dead ones
  /// under flipping pruning ("eliminate non-flipping patterns"),
  /// infrequent ones always.
  void EvictCompletedRow(CellRow* row);

  /// Retires `row` once its child row is complete: keeps only the
  /// chain-alive rows (the chains' upper links) of the columns the
  /// child row reached, and moves the child's parent links with them.
  void RetireRow(CellRow* row, CellRow* child_row);

  /// Absorbs the run's counters, stage histograms and pool
  /// utilization into config_.metrics (no-op when null).
  void RecordRunMetrics(const MiningStats& stats, double wall_ms);

  const Taxonomy& tax_;
  const MiningConfig& config_;
  /// == config_.metrics; cached so every stage scope is one member
  /// read. Null means "record nothing".
  MetricsRegistry* metrics_ = nullptr;
  /// Started per run when config_.pool is null; unused otherwise.
  std::unique_ptr<ThreadPool> owned_pool_;
  /// The pool this run submits to: owned_pool_ or config_.pool.
  ThreadPool* pool_ = nullptr;
  /// The run's thread budget: min(config_.num_threads resolved, pool
  /// size). Caps every count's shard count.
  int num_shards_ = 1;
  /// Built per run when Execute gets no shared views; unused otherwise.
  LevelViews owned_views_;
  /// The views this run reads: &owned_views_ or the borrowed instance.
  const LevelViews* views_ = nullptr;
  std::optional<SupportCounter> counter_;
  std::unique_ptr<CellPlanner> planner_;
  std::unique_ptr<CellEvaluator> evaluator_;
  MemoryTracker tracker_;
  MiningStats stats_;
  /// Whole-run stopwatch (member so the cancellation unwind can stamp
  /// partial stats from any stage).
  WallTimer run_timer_;

  uint32_t num_txns_ = 0;
  int height_ = 0;
  int max_k_ = 0;  // current column cap; TPG shrinks it

  /// Frequent single items per level (index h), sorted by id.
  std::vector<std::vector<ItemId>> freq_items_;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_CELL_PIPELINE_H_
