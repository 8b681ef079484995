#include "core/cell_pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/trace.h"
#include "core/candidate_gen.h"
#include "core/pipeline_metrics.h"

namespace flipper {
namespace {

// One pipeline stage on the driver thread: a cat="stage" trace span
// plus (when a registry is attached) "stage.<name>_ms" /
// "stage.<name>_cpu_ms" histogram samples. Stage scopes are laid out
// so they never nest — the trace coverage check sums them against the
// root "mine" span.
class StageScope {
 public:
  StageScope(MetricsRegistry* metrics, const char* name)
      : timer_(metrics, name), span_(name, "stage") {}
  StageScope(MetricsRegistry* metrics, const char* name, int h, int k)
      : timer_(metrics, name), span_(name, "stage", h, k) {}

 private:
  ScopedStageTimer timer_;
  trace::ScopedSpan span_;
};

}  // namespace

Result<MiningResult> CellPipeline::Execute(const TransactionDb& db,
                                           const LevelViews* shared_views) {
  FLIPPER_RETURN_IF_ERROR(config_.Validate());
  metrics_ = config_.metrics;
  if (trace::Enabled()) trace::SetThreadName("driver");
  // Root span of the run; every driver-side stage scope below lands
  // strictly inside it and the coverage check compares against it.
  FLIPPER_TRACE_SPAN("mine", "run");
  run_timer_.Restart();
  if (config_.pool != nullptr) {
    pool_ = config_.pool;
  } else {
    StageScope stage(metrics_, "pool_start");
    owned_pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    pool_ = owned_pool_.get();
  }
  // The run's thread budget: a borrowed pool may be larger than what
  // the run asked for, and the shard count never depends on it.
  num_shards_ = std::min(ThreadPool::ResolveThreadCount(config_.num_threads),
                         pool_->num_threads());
  // Every batch this driver submits reports to this run's registry,
  // so a shared pool's tasks land in the query that submitted them.
  PoolObserverScope observer_scope(metrics_);
  if (shared_views != nullptr) {
    // Borrowed store views (the serving path): read-only, possibly
    // shared with concurrent pipelines. Any catalogs they carry are
    // never read, so results match the owned build bit for bit.
    views_ = shared_views;
  } else {
    StageScope stage(metrics_, "views_build");
    FLIPPER_ASSIGN_OR_RETURN(owned_views_,
                             LevelViews::Build(db, tax_, pool_));
    views_ = &owned_views_;
  }
  counter_.emplace(pool_, config_.cancel, num_shards_);

  MiningResult result;
  height_ = tax_.height();
  num_txns_ = views_->num_transactions();

  // Column bound: itemsets are rooted in distinct level-1 nodes, and a
  // frequent (h,k)-itemset needs a transaction with k distinct level-h
  // items (paper §4.1).
  max_k_ = static_cast<int>(std::min<size_t>(
      tax_.Level1().size(), views_->MaxUniversalWidth()));
  max_k_ = std::min(max_k_, kMaxItemsetSize);
  if (config_.max_itemset_size > 0) {
    max_k_ = std::min(max_k_, config_.max_itemset_size);
  }

  {
    StageScope stage(metrics_, "singletons");
    // Scan 1 (line 1 of Algorithm 1): frequent single items per level.
    freq_items_.assign(static_cast<size_t>(height_) + 1, {});
    for (int h = 1; h <= height_; ++h) {
      const uint32_t min_count = config_.MinCount(h, num_txns_);
      auto& items = freq_items_[static_cast<size_t>(h)];
      for (ItemId item : tax_.NodesAtLevel(h)) {
        if (views_->ItemSupport(h, item) >= min_count) {
          items.push_back(item);
        }
      }
    }
    planner_ = std::make_unique<CellPlanner>(tax_, config_, *views_,
                                             freq_items_);
    evaluator_ = std::make_unique<CellEvaluator>(
        tax_, config_, *views_, &tracker_, freq_items_, num_txns_);
  }

  if (height_ < 2 || max_k_ < 2) {
    // No flipping is possible with a single abstraction level, and no
    // correlation is defined for single items.
    result.stats.total_seconds = run_timer_.ElapsedSeconds();
    RecordRunMetrics(result.stats, run_timer_.ElapsedSeconds() * 1e3);
    return result;
  }

  // Deadline may already have passed (e.g. spent queued in a server's
  // waiting room) — fail before the first candidate is generated.
  FLIPPER_RETURN_IF_ERROR(CheckCancel());

  // --- Phase 1: the two ceiling rows, zigzag (lines 2-7). ---
  // table[h] is row h of M. A retired row keeps its chain-alive rows
  // only: the leaf row's parent links walk up through them.
  std::vector<CellRow> table(static_cast<size_t>(height_) + 1);
  CellRow& row1 = table[1];
  CellRow& row2 = table[2];
  for (int k = 2; k <= max_k_; ++k) {
    FLIPPER_RETURN_IF_ERROR(CheckCancel());
    const Cell* prev1 =
        k == 2 ? nullptr : &row1[static_cast<size_t>(k - 3)];
    FLIPPER_ASSIGN_OR_RETURN(Cell q1, RunCell(1, k, nullptr, prev1));
    if (stats_.cells.back().frequent == 0) {  // q1's committed stats
      // Support termination: no frequent (1,k)-itemsets means no
      // frequent (1,k')-itemsets for k' >= k, so every deeper chain is
      // broken from column k on.
      max_k_ = k - 1;
      break;
    }
    row1.push_back(std::move(q1));

    const Cell& parent = row1[static_cast<size_t>(k - 2)];
    const Cell* prev2 =
        k == 2 ? nullptr : &row2[static_cast<size_t>(k - 3)];
    FLIPPER_ASSIGN_OR_RETURN(Cell q2, RunCell(2, k, &parent, prev2));
    row2.push_back(std::move(q2));

    {
      StageScope stage(metrics_, "sibp", 2, k);
      evaluator_->SibpUpdate(1, k, row1[static_cast<size_t>(k - 2)]);
      evaluator_->SibpUpdate(2, k, row2[static_cast<size_t>(k - 2)]);
      evaluator_->SibpBan(2, k, &stats_);
    }

    if (TpgFires(row1[static_cast<size_t>(k - 2)],
                 row2[static_cast<size_t>(k - 2)])) {
      if (stats_.tpg_stopped_at == 0) stats_.tpg_stopped_at = k;
      max_k_ = k - 1;
      break;
    }
  }
  {
    StageScope stage(metrics_, "evict");
    // Line 7: eliminate non-flipping patterns in rows 1 and 2.
    RetireRow(&row1, &row2);
    EvictCompletedRow(&row2);
  }

  // --- Phase 2: rows 3..H, row-wise (lines 8-15). ---
  for (int h = 3; h <= height_; ++h) {
    const CellRow& prev_row = table[static_cast<size_t>(h - 1)];
    CellRow& cur_row = table[static_cast<size_t>(h)];
    for (int k = 2; k <= max_k_; ++k) {
      FLIPPER_RETURN_IF_ERROR(CheckCancel());
      // Row h-1 holds every column up to max_k_: the cap only
      // shrinks, and a row that stops early lowers it below its last
      // cell.
      const Cell& parent = prev_row[static_cast<size_t>(k - 2)];
      const Cell* prev_in_row =
          k == 2 ? nullptr : &cur_row[static_cast<size_t>(k - 3)];
      FLIPPER_ASSIGN_OR_RETURN(Cell cell,
                               RunCell(h, k, &parent, prev_in_row));
      cur_row.push_back(std::move(cell));

      {
        StageScope stage(metrics_, "sibp", h, k);
        evaluator_->SibpUpdate(h, k, cur_row[static_cast<size_t>(k - 2)]);
        evaluator_->SibpBan(h, k, &stats_);
      }

      if (TpgFires(parent, cur_row[static_cast<size_t>(k - 2)])) {
        if (stats_.tpg_stopped_at == 0) stats_.tpg_stopped_at = k;
        max_k_ = k - 1;
        break;
      }
    }
    // Line 14: eliminate non-flipping patterns; row h-1 retires.
    StageScope stage(metrics_, "evict");
    RetireRow(&table[static_cast<size_t>(h - 1)], &cur_row);
    EvictCompletedRow(&cur_row);
  }

  {
    StageScope stage(metrics_, "assemble");
    // Line 16: report the alive itemsets of the deepest row.
    AssemblePatterns(table, &result);

    // Counter scans + the initial singleton scan, which counts item
    // supports densely by id.
    stats_.db_scans += counter_->num_db_scans() + 1;
    stats_.dense_scans += counter_->num_dense_scans() + 1;
    stats_.scan_cell_scans += counter_->num_occurring_scans();
    stats_.peak_candidate_bytes = tracker_.peak_bytes();
    stats_.total_seconds = run_timer_.ElapsedSeconds();
    result.stats = std::move(stats_);
  }
  RecordRunMetrics(result.stats, run_timer_.ElapsedSeconds() * 1e3);
  return result;
}

Status CellPipeline::CheckCancel() {
  const CancelToken* token = config_.cancel;
  if (token == nullptr || !token->Fired()) return Status::OK();
  // The cancelled run still reports whatever it counted: stamp the
  // partial MiningStats into the metrics sink before unwinding.
  stats_.total_seconds = run_timer_.ElapsedSeconds();
  RecordRunMetrics(stats_, run_timer_.ElapsedSeconds() * 1e3);
  Status fired = token->ToStatus();
  // Fired tokens stay fired (the flag is sticky and deadlines are
  // monotone); the fallback only guards a misbehaving token.
  if (fired.ok()) fired = Status::Cancelled("cancelled: query abandoned");
  return fired;
}

void CellPipeline::RecordRunMetrics(const MiningStats& stats,
                                    double wall_ms) {
  if (metrics_ == nullptr) return;
  MetricsRegistry& m = *metrics_;
  m.AddCounter("mine.cells", static_cast<int64_t>(stats.cells.size()));
  m.AddCounter("mine.candidates_generated",
               static_cast<int64_t>(stats.total_generated));
  m.AddCounter("mine.candidates_counted",
               static_cast<int64_t>(stats.total_counted));
  m.AddCounter("mine.db_scans", static_cast<int64_t>(stats.db_scans));
  m.AddCounter("mine.dense_scans", static_cast<int64_t>(stats.dense_scans));
  m.AddCounter("mine.scan_cell_scans",
               static_cast<int64_t>(stats.scan_cell_scans));
  m.AddCounter("mine.positive_itemsets",
               static_cast<int64_t>(stats.num_positive));
  m.AddCounter("mine.negative_itemsets",
               static_cast<int64_t>(stats.num_negative));
  m.AddCounter("mine.sibp_banned_items",
               static_cast<int64_t>(stats.sibp_banned_items));
  m.AddCounter("mine.tpg_stop_column",
               static_cast<int64_t>(stats.tpg_stopped_at));
  m.AddCounter("mine.peak_candidate_bytes",
               static_cast<int64_t>(stats.peak_candidate_bytes));
  m.SetGauge("mine.total_ms", wall_ms);

  m.AddCounter("scan.arena_grow_events",
               static_cast<int64_t>(counter_->arena_grow_events()));

  // This run's tasks are done: every count future joined before this.
  if (pool_ != nullptr) {
    m.FinalizePool(wall_ms, num_shards_);
  }
}

Result<Cell> CellPipeline::RunCell(int h, int k, const Cell* parent,
                                   const Cell* prev_in_row) {
  WallTimer timer;
  CellStats cs;
  cs.h = h;
  cs.k = k;
  CellPlan plan;
  {
    StageScope stage(metrics_, "plan", h, k);
    plan = h == 1 ? planner_->PlanRow1(k, prev_in_row)
                  : planner_->PlanVertical(h, k, *parent,
                                           evaluator_->usable(h));
  }
  const bool scan = plan.strategy == CellStrategy::kScan;
  std::vector<Itemset> candidates;
  std::vector<uint32_t> supports;
  std::vector<uint32_t> parents = std::move(plan.parents);
  if (!scan) {
    cs.generated = plan.candidates.size();
    candidates = std::move(plan.candidates);
    if (h >= 2 && prev_in_row != nullptr) {
      StageScope stage(metrics_, "subset_filter", h, k);
      RetainCandidates(&candidates, &parents, config_.cancel,
                       [&](const Itemset& candidate) {
                         return !HasKnownInfrequentSubset(candidate,
                                                          *prev_in_row);
                       });
    }
    // The filter stops early on a fired token: never count its partial
    // output.
    FLIPPER_RETURN_IF_ERROR(CheckCancel());
    if (plan.truncated) return TruncatedError(h, k);
    cs.counted = candidates.size();
  }
  CountFuture future;
  {
    StageScope stage(metrics_, "count_start", h, k);
    future = scan ? counter_->StartCountOccurring(
                        views_, h, k, plan.items,
                        config_.max_candidates_per_cell, &candidates,
                        &supports)
                  : counter_->StartCount(views_, h, candidates, &supports);
  }
  {
    StageScope stage(metrics_, "count_wait", h, k);
    FLIPPER_RETURN_IF_ERROR(future.Join());
  }
  if (scan) {
    // Keep the combinations growable from an eligible parent that pass
    // the subset test. (Combinations whose items share a level-1 root
    // generalize to fewer than k items, so they find no parent.)
    cs.generated = candidates.size();
    StageScope stage(metrics_, "subset_filter", h, k);
    const Cell::Flag eligible = ParentFlag(config_);
    RetainCandidates(&candidates, &supports, config_.cancel,
                     [&](const Itemset& combo) {
                       const uint32_t row =
                           parent->Find(combo.Map([&](ItemId item) {
                             return tax_.AncestorAtLevel(item, h - 1);
                           }));
                       return row != Cell::kNoRow &&
                              parent->has(row, eligible) &&
                              (prev_in_row == nullptr ||
                               !HasKnownInfrequentSubset(combo,
                                                         *prev_in_row));
                     });
    cs.counted = candidates.size();
  }

  // A token that fired mid-count made the shard loops bail early, so
  // the supports may be partial — never evaluate them. (An un-fired
  // token implies complete, exact supports.)
  FLIPPER_RETURN_IF_ERROR(CheckCancel());
  StageScope stage(metrics_, "evaluate", h, k);
  Cell cell = evaluator_->Evaluate(h, k, candidates, supports, parents,
                                   parent, &cs, &stats_);
  // Evaluate stops early on a fired token; the partial cell is dropped.
  FLIPPER_RETURN_IF_ERROR(CheckCancel());
  cs.seconds = timer.ElapsedSeconds();
  stats_.AddCell(cs);
  return cell;
}

Status CellPipeline::TruncatedError(int h, int k) const {
  return Status::ResourceExhausted(
      "cell Q(" + std::to_string(h) + "," + std::to_string(k) +
      ") exceeded the candidate limit (" +
      std::to_string(config_.max_candidates_per_cell) + ")");
}

void CellPipeline::EvictCompletedRow(CellRow* row) {
  for (Cell& cell : *row) cell.Retain(ParentFlag(config_), nullptr);
}

void CellPipeline::RetireRow(CellRow* row, CellRow* child_row) {
  // A column the child row never reached holds no chain's parent.
  row->erase(row->begin() + static_cast<ptrdiff_t>(child_row->size()),
             row->end());
  for (size_t col = 0; col < row->size(); ++col) {
    (*row)[col].Retain(Cell::kChainAlive, &(*child_row)[col]);
  }
}

}  // namespace flipper
