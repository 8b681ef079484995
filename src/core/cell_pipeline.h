// CellPipeline: the staged cell-execution driver of the Flipper
// algorithm (Algorithm 1). Each cell Q(h,k) runs through three
// explicit stages —
//
//   plan     (CellPlanner)   candidate generation, strategy selection
//   count    (SupportCounter) one sharded database scan of the
//                             cell's same-size candidates on the
//                             pool, or the scan-driven route
//                             (scan_cell.h)
//   evaluate (CellEvaluator)  correlation, labels, chains, SIBP
//
// — and the driver overlaps stages across cells: while Q(h,k)'s
// support scan runs asynchronously on the thread pool
// (SupportCounter::StartCount), the driver thread speculatively plans
// Q(h,k+1). That is sound because planning reads only *completed*
// cells (the parent row for vertical growth, the finished Q(1,k) for
// the row-1 prefix join) plus level h's SIBP ban set; the driver joins
// the per-cell count future before evaluation, and a speculative plan
// whose ban-set version went stale (or that survives a TPG stop) is
// simply discarded and regenerated, so mining output is bit-identical
// to the staged-serial order for any thread count
// (MiningConfig::enable_pipelining toggles the overlap).
//
// With MiningConfig::enable_row_overlap the speculation window also
// spans row boundaries — the pool's idle gap at every level
// transition. At a row's last column the driver plans Q(h+1,2) from
// the completed Q(h,2) while Q(h,max_k) still counts, then starts
// Q(h+1,2)'s scan the moment Q(h,max_k) joins, so the pool counts
// Q(h+1,2) while the driver evaluates the row tail, runs the SIBP/TPG
// bookkeeping, and evicts the finished row. This preserves both
// invariants the intra-row speculation relies on: counts begin/join
// strictly one at a time (the counter's pooled-scratch discipline),
// and the plan is revalidated against level h+1's SIBP ban version at
// adoption — that set cannot change before row h+1 starts (SibpBan(h)
// only bans level-h items), and eviction retains exactly the
// ParentEligible records planning reads, so output stays
// bit-identical. Scan-strategy and truncated cross plans are carried
// un-started and consumed in exact serial position instead.
//
// Processing order, pruning semantics and memory policy are unchanged
// from the paper: the two ceiling rows zigzag so TPG always sees two
// vertically consecutive cells, rows 3..H run left to right, only two
// rows are resident, and completed rows evict chain-dead itemsets.

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
#include "core/scan_cell.h"
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
  /// instance, each with its own pool. Results are bit-identical to
  /// the owned-views path — shard counts derive from this run's pool,
  /// never from whoever built the views. The views must describe
  /// exactly `db` and outlive the call.
  Result<MiningResult> Execute(const TransactionDb& db,
                               const LevelViews* shared_views);

 private:
  /// A row of the search-space table: row[k - 2] is Q(h, k).
  using Row = std::vector<Cell>;

  /// One cell travelling through the stages. Candidates and supports
  /// must stay put while the count future is in flight, so cross-row
  /// works live behind unique_ptr; the destructor joins any still
  /// in-flight count (idempotent) so an error-path unwind can never
  /// free buffers a pool task is writing.
  struct CellWork {
    CellStats cs;
    WallTimer timer;
    std::vector<Itemset> candidates;
    std::vector<uint32_t> supports;
    CountFuture future;
    /// The scan-driven route counted during generation; no count
    /// stage remains and therefore nothing overlaps this cell.
    bool counted_by_scan = false;

    CellWork() = default;
    ~CellWork() { future.Join(); }
    CellWork(const CellWork&) = delete;
    CellWork& operator=(const CellWork&) = delete;
  };

  /// Cross-row speculation in flight between a row's last column and
  /// the next row's first. Exactly one of the members is set: a
  /// started count for the in-memory strategies, or a carried
  /// (un-started) plan for the scan/truncated routes.
  struct CrossRowState {
    /// Q(h+1,2) with its count already dispatched.
    std::unique_ptr<CellWork> started;
    /// banned(h+1) size the started plan read, revalidated at
    /// adoption.
    size_t ban_version = 0;
    /// Scan-strategy or truncated plan, consumed as the next row's
    /// first spec so errors and scans happen in serial position.
    std::optional<CellPlan> carried;
  };

  /// Stage 1 (+ count dispatch) for a vertical cell Q(h,k), h >= 2:
  /// uses `spec` when it is still valid, replans otherwise; applies
  /// the within-row known-infrequent filter; dispatches the count or
  /// runs the scan-driven route inline. `work` is filled in place —
  /// its address must stay stable until FinishCell, because the
  /// in-flight count writes into work->supports.
  Status BeginVerticalCell(int h, int k, const Cell* parent,
                           const Cell* prev_in_row,
                           std::optional<CellPlan> spec, CellWork* work);

  /// Stage 1 (+ count dispatch) for a row-1 cell.
  Status BeginRow1Cell(int k, const Cell* prev_in_row,
                       std::optional<CellPlan> spec, CellWork* work);

  /// Joins the count, runs evaluation, commits the cell's stats.
  Result<Cell> FinishCell(CellWork* work, const Cell* parent);

  /// Evaluation half of FinishCell: requires the count joined.
  Result<Cell> EvaluateCell(CellWork* work, const Cell* parent);

  /// Row-overlap join: plans Q(next_h,2) from `cross_parent` while
  /// `work`'s count is still in flight, joins `work`, then dispatches
  /// the cross count (in-memory strategies) or stows the plan
  /// (scan/truncated) into `cross`. With a null `cross_parent` this
  /// degenerates to a plain join.
  Status JoinWithCrossStart(CellWork* work, int next_h,
                            const Cell* cross_parent,
                            CrossRowState* cross);

  Status TruncatedError(int h, int k) const;

  /// Cooperative-cancellation poll point. OK while config_.cancel is
  /// null or un-fired (one relaxed load — the hot case); once the
  /// token fires this records the partial-run MiningStats into the
  /// metrics sink and returns the token's DeadlineExceeded/Cancelled
  /// status, which unwinds Execute through the normal error path
  /// (CellWork destructors join in-flight counts, counter scratch
  /// returns to its pool via the count finalizer).
  Status CheckCancel();

  /// Theorem-3 premise over two vertically consecutive cells.
  bool TpgFires(const Cell& upper, const Cell& lower) const {
    return config_.pruning.tpg && upper.AllNonPositive() &&
           lower.AllNonPositive();
  }

  /// Evicts records a completed row no longer needs: chain-dead ones
  /// under flipping pruning ("eliminate non-flipping patterns"),
  /// infrequent ones always.
  void EvictCompletedRow(Row* row);

  /// Absorbs the run's counters, stage histograms, speculation rates
  /// and pool utilization into config_.metrics (no-op when null).
  void RecordRunMetrics(const MiningStats& stats, double wall_ms);

  const Taxonomy& tax_;
  const MiningConfig& config_;
  /// == config_.metrics; cached so every stage scope is one member
  /// read. Null means "record nothing".
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
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
  /// Shard buffers of the scan-driven cells, reused across cells (the
  /// scan-cell analogue of the counter's trie-reuse scratch).
  ScanCellScratch scan_scratch_;

  uint32_t num_txns_ = 0;
  int height_ = 0;
  int max_k_ = 0;  // current column cap; TPG shrinks it
  bool pipelining_ = true;
  bool row_overlap_ = true;  // cross-row speculation (needs pipelining_)

  /// Speculation outcome tallies (always tracked — they are plain
  /// increments — and exported via RecordRunMetrics).
  uint64_t spec_used_ = 0;        // intra-row plan adopted as-is
  uint64_t spec_discarded_ = 0;   // intra-row plan went stale, replanned
  uint64_t cross_adopted_ = 0;    // cross-row count adopted in flight
  uint64_t cross_discarded_ = 0;  // cross-row count joined + dropped
  uint64_t cross_carried_ = 0;    // cross-row plan carried un-started

  /// Frequent single items per level (index h), sorted by id.
  std::vector<std::vector<ItemId>> freq_items_;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_CELL_PIPELINE_H_
