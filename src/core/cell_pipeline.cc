#include "core/cell_pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/trace.h"
#include "core/candidate_gen.h"
#include "core/pipeline_metrics.h"
#include "core/scan_cell.h"

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
  {
    StageScope stage(metrics_, "pool_start");
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    // Before the first Submit — the pool's queue mutex publishes the
    // observer to the workers.
    if (metrics_ != nullptr) pool_->set_observer(metrics_);
  }
  if (shared_views != nullptr) {
    // Borrowed store views (the serving path): read-only, possibly
    // shared with concurrent pipelines. Any catalogs they carry are
    // never read, so results match the owned build bit for bit.
    views_ = shared_views;
  } else {
    StageScope stage(metrics_, "views_build");
    FLIPPER_ASSIGN_OR_RETURN(owned_views_,
                             LevelViews::Build(db, tax_, pool_.get()));
    views_ = &owned_views_;
  }
  counter_.emplace(pool_.get(), config_.cancel);
  pipelining_ = config_.enable_pipelining;
  row_overlap_ = pipelining_ && config_.enable_row_overlap;

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
                                             freq_items_, num_txns_);
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

  // Cross-row speculation handed from one row's last column to the
  // next row's first cell (enable_row_overlap). Declared ahead of both
  // phases: phase 1's last column seeds row 3.
  CrossRowState cross;

  // --- Phase 1: the two ceiling rows, zigzag (lines 2-7). ---
  Row row1;
  Row row2;
  std::optional<CellPlan> spec;
  for (int k = 2; k <= max_k_; ++k) {
    FLIPPER_RETURN_IF_ERROR(CheckCancel());
    CellWork work1;
    const Cell* prev1 =
        k == 2 ? nullptr : &row1[static_cast<size_t>(k - 3)];
    FLIPPER_RETURN_IF_ERROR(
        BeginRow1Cell(k, prev1, std::move(spec), &work1));
    spec.reset();
    FLIPPER_ASSIGN_OR_RETURN(Cell q1, FinishCell(&work1, nullptr));
    const bool q1_has_frequent = !q1.Select([](const ItemsetRecord& r) {
                                     return r.frequent;
                                   }).empty();
    if (!q1_has_frequent) {
      // Support termination: no frequent (1,k)-itemsets means no
      // frequent (1,k')-itemsets for k' >= k, so every deeper chain is
      // broken from column k on.
      max_k_ = k - 1;
      break;
    }
    row1.push_back(std::move(q1));

    CellWork work2;
    const Cell& parent = row1[static_cast<size_t>(k - 2)];
    const Cell* prev2 =
        k == 2 ? nullptr : &row2[static_cast<size_t>(k - 3)];
    FLIPPER_RETURN_IF_ERROR(
        BeginVerticalCell(2, k, &parent, prev2, std::nullopt, &work2));
    // Overlap: while Q(2,k) counts on the pool, the driver plans
    // Q(1,k+1) — the prefix join reads only the completed Q(1,k).
    if (pipelining_ && k < max_k_ && !work2.counted_by_scan) {
      StageScope stage(metrics_, "plan", 1, k + 1);
      spec = planner_->PlanRow1(k + 1, &parent);
    }
    // Row overlap: at the last column, plan (and start counting)
    // Q(3,2) from the completed Q(2,2) while Q(2,max_k) finishes.
    const Cell* cross_parent =
        row_overlap_ && k == max_k_ && height_ >= 3 && !row2.empty()
            ? &row2[0]
            : nullptr;
    FLIPPER_RETURN_IF_ERROR(
        JoinWithCrossStart(&work2, 3, cross_parent, &cross));
    FLIPPER_ASSIGN_OR_RETURN(Cell q2, EvaluateCell(&work2, &parent));
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
  spec.reset();
  {
    StageScope stage(metrics_, "evict");
    // Line 7: eliminate non-flipping patterns in rows 1 and 2. Row 1
    // is no longer needed at all (chains carry its data forward).
    row1.clear();
    evaluator_->ReleaseChains(1);
    EvictCompletedRow(&row2);
  }

  // --- Phase 2: rows 3..H, row-wise (lines 8-15). ---
  Row prev_row = std::move(row2);
  for (int h = 3; h <= height_; ++h) {
    Row cur_row;
    std::optional<CellPlan> vspec;
    // A carried cross-row plan (scan route / truncated) becomes the
    // row's first spec, so its scan or error lands in serial position.
    if (cross.carried.has_value()) {
      ++cross_carried_;
      vspec = std::move(cross.carried);
      cross.carried.reset();
    }
    for (int k = 2; k <= max_k_; ++k) {
      FLIPPER_RETURN_IF_ERROR(CheckCancel());
      const Cell* parent =
          static_cast<size_t>(k - 2) < prev_row.size()
              ? &prev_row[static_cast<size_t>(k - 2)]
              : nullptr;
      const Cell* prev_in_row =
          k == 2 ? nullptr : &cur_row[static_cast<size_t>(k - 3)];
      std::unique_ptr<CellWork> work;
      if (k == 2 && cross.started != nullptr) {
        StageScope stage(metrics_, "cross_adopt", h, k);
        std::unique_ptr<CellWork> started = std::move(cross.started);
        if (evaluator_->banned(h).size() == cross.ban_version) {
          // Adopt the cross-row count already in flight. Provably
          // always taken — SibpBan(h-1,·) bans only level-(h-1) items,
          // so banned(h) cannot have grown since the plan read it.
          ++cross_adopted_;
          work = std::move(started);
        } else {
          // Defensive stale path: join, discard, replan serially.
          ++cross_discarded_;
          FLIPPER_RETURN_IF_ERROR(started->future.Join());
        }
      }
      if (work == nullptr) {
        work = std::make_unique<CellWork>();
        FLIPPER_RETURN_IF_ERROR(BeginVerticalCell(
            h, k, parent, prev_in_row, std::move(vspec), work.get()));
      }
      vspec.reset();
      // Overlap: while Q(h,k)'s scan counts on the pool, the driver
      // plans Q(h,k+1) from the completed parent row. The plan records
      // the SIBP ban version it read; if evaluating Q(h,k) bans more
      // items, BeginVerticalCell discards it and replans.
      if (pipelining_ && k < max_k_ && !work->counted_by_scan) {
        const Cell* next_parent =
            static_cast<size_t>(k - 1) < prev_row.size()
                ? &prev_row[static_cast<size_t>(k - 1)]
                : nullptr;
        if (next_parent != nullptr) {
          StageScope stage(metrics_, "plan", h, k + 1);
          vspec = planner_->PlanVertical(h, k + 1, *next_parent,
                                         evaluator_->banned(h));
        }
      }
      // Row overlap at the last column: plan and start Q(h+1,2) from
      // the completed Q(h,2) while Q(h,max_k)'s count drains.
      const Cell* cross_parent =
          row_overlap_ && k == max_k_ && h < height_ && !cur_row.empty()
              ? &cur_row[0]
              : nullptr;
      FLIPPER_RETURN_IF_ERROR(
          JoinWithCrossStart(work.get(), h + 1, cross_parent, &cross));
      FLIPPER_ASSIGN_OR_RETURN(Cell cell,
                               EvaluateCell(work.get(), parent));
      cur_row.push_back(std::move(cell));

      {
        StageScope stage(metrics_, "sibp", h, k);
        evaluator_->SibpUpdate(h, k, cur_row[static_cast<size_t>(k - 2)]);
        evaluator_->SibpBan(h, k, &stats_);
      }

      if (parent != nullptr &&
          TpgFires(*parent, cur_row[static_cast<size_t>(k - 2)])) {
        if (stats_.tpg_stopped_at == 0) stats_.tpg_stopped_at = k;
        max_k_ = k - 1;
        break;
      }
    }
    // Line 14: eliminate non-flipping patterns; row h-1 retires.
    StageScope stage(metrics_, "evict");
    prev_row.clear();
    evaluator_->ReleaseChains(h - 1);
    EvictCompletedRow(&cur_row);
    prev_row = std::move(cur_row);
  }

  {
    StageScope stage(metrics_, "assemble");
    // Line 16: report the alive itemsets of the deepest row.
    evaluator_->AssemblePatterns(prev_row, &result);

    // Counter scans + scan-driven cell scans + the initial singleton
    // scan, which counts item supports densely by id.
    stats_.db_scans += counter_->num_db_scans() + 1;
    stats_.dense_scans += counter_->num_dense_scans() + 1;
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

  m.AddCounter("pipeline.spec_used", static_cast<int64_t>(spec_used_));
  m.AddCounter("pipeline.spec_discarded",
               static_cast<int64_t>(spec_discarded_));
  m.AddCounter("pipeline.cross_row_adopted",
               static_cast<int64_t>(cross_adopted_));
  m.AddCounter("pipeline.cross_row_discarded",
               static_cast<int64_t>(cross_discarded_));
  m.AddCounter("pipeline.cross_row_carried",
               static_cast<int64_t>(cross_carried_));
  const uint64_t spec_total = spec_used_ + spec_discarded_;
  if (spec_total > 0) {
    m.SetGauge("pipeline.spec_adoption_rate",
               static_cast<double>(spec_used_) /
                   static_cast<double>(spec_total));
  }
  const uint64_t cross_total = cross_adopted_ + cross_discarded_;
  if (cross_total > 0) {
    m.SetGauge("pipeline.cross_adoption_rate",
               static_cast<double>(cross_adopted_) /
                   static_cast<double>(cross_total));
  }

  uint64_t arena_grow = 0;
  for (const ScanCounterTable& table : scan_scratch_.shard_tables) {
    arena_grow += table.grow_events();
  }
  m.AddCounter("scan.arena_grow_events", static_cast<int64_t>(arena_grow));

  // The pool is quiet here: every count future joined before this.
  if (pool_ != nullptr) {
    m.FinalizePool(wall_ms, pool_->num_threads());
  }
}

Status CellPipeline::BeginRow1Cell(int k, const Cell* prev_in_row,
                                   std::optional<CellPlan> spec,
                                   CellWork* work) {
  work->cs.h = 1;
  work->cs.k = k;
  CellPlan plan;
  if (spec.has_value() && spec->k == k) {
    ++spec_used_;
    plan = std::move(*spec);
  } else {
    if (spec.has_value()) ++spec_discarded_;
    StageScope stage(metrics_, "plan", 1, k);
    plan = planner_->PlanRow1(k, prev_in_row);
  }
  if (plan.truncated) return TruncatedError(1, k);
  work->cs.generated = plan.candidates.size();
  work->candidates = std::move(plan.candidates);
  work->cs.counted = work->candidates.size();
  StageScope stage(metrics_, "count_start", 1, k);
  work->future =
      counter_->StartCount(views_, 1, work->candidates, &work->supports);
  return Status::OK();
}

Status CellPipeline::BeginVerticalCell(int h, int k, const Cell* parent,
                                       const Cell* prev_in_row,
                                       std::optional<CellPlan> spec,
                                       CellWork* work) {
  work->cs.h = h;
  work->cs.k = k;
  if (parent == nullptr) {
    // No parent cell to grow from: the cell is empty (the ready future
    // leaves the supports empty without accounting a scan).
    work->future = counter_->StartCount(views_, h, work->candidates,
                                        &work->supports);
    return Status::OK();
  }
  const auto& banned = evaluator_->banned(h);
  CellPlan plan;
  if (spec.has_value() && spec->h == h && spec->k == k &&
      CellPlanner::PlanValid(*spec, banned)) {
    ++spec_used_;
    plan = std::move(*spec);
  } else {
    if (spec.has_value()) ++spec_discarded_;
    StageScope stage(metrics_, "plan", h, k);
    plan = planner_->PlanVertical(h, k, *parent, banned);
  }
  if (plan.strategy == CellStrategy::kScan) {
    StageScope stage(metrics_, "scan_cell", h, k);
    FLIPPER_RETURN_IF_ERROR(FillCellByScan(
        *views_, tax_, config_, h, k, *parent, prev_in_row, banned,
        freq_items_[static_cast<size_t>(h)], &work->candidates,
        &work->supports, &work->cs, &stats_, &scan_scratch_,
        pool_.get()));
    work->counted_by_scan = true;
    work->cs.counted = work->candidates.size();
    return Status::OK();
  }
  work->cs.generated = plan.candidates.size();
  work->candidates = std::move(plan.candidates);
  if (prev_in_row != nullptr) {
    StageScope stage(metrics_, "subset_filter", h, k);
    work->candidates = FilterKnownInfrequentSubsets(
        std::move(work->candidates), *prev_in_row, config_.cancel);
  }
  // The filter stops early on a fired token: never count its partial
  // output.
  FLIPPER_RETURN_IF_ERROR(CheckCancel());
  if (plan.truncated) return TruncatedError(h, k);
  work->cs.counted = work->candidates.size();
  StageScope stage(metrics_, "count_start", h, k);
  work->future =
      counter_->StartCount(views_, h, work->candidates, &work->supports);
  return Status::OK();
}

Result<Cell> CellPipeline::FinishCell(CellWork* work, const Cell* parent) {
  {
    StageScope stage(metrics_, "count_wait", work->cs.h, work->cs.k);
    FLIPPER_RETURN_IF_ERROR(work->future.Join());
  }
  return EvaluateCell(work, parent);
}

Result<Cell> CellPipeline::EvaluateCell(CellWork* work,
                                        const Cell* parent) {
  // A token that fired mid-count made the shard loops bail early, so
  // work->supports may be partial — never evaluate them. (An un-fired
  // token implies complete, exact supports.)
  FLIPPER_RETURN_IF_ERROR(CheckCancel());
  StageScope stage(metrics_, "evaluate", work->cs.h, work->cs.k);
  Cell cell =
      evaluator_->Evaluate(work->cs.h, work->cs.k, work->candidates,
                           work->supports, parent, &work->cs, &stats_);
  // Evaluate stops early on a fired token; the partial cell is dropped.
  FLIPPER_RETURN_IF_ERROR(CheckCancel());
  work->cs.seconds = work->timer.ElapsedSeconds();
  stats_.AddCell(work->cs);
  return cell;
}

Status CellPipeline::JoinWithCrossStart(CellWork* work, int next_h,
                                        const Cell* cross_parent,
                                        CrossRowState* cross) {
  if (cross_parent == nullptr) {
    StageScope stage(metrics_, "count_wait", work->cs.h, work->cs.k);
    return work->future.Join();
  }
  // Plan Q(next_h,2) while this cell's count is still in flight. The
  // plan reads only the completed cross parent (Q(next_h-1,2)) and
  // level next_h's SIBP ban set — evaluating the in-flight cell bans
  // level-(next_h-1) items only, so the plan cannot go stale before
  // row next_h adopts it (the version is still revalidated there).
  CellPlan plan;
  {
    StageScope stage(metrics_, "plan", next_h, 2);
    plan = planner_->PlanVertical(next_h, 2, *cross_parent,
                                  evaluator_->banned(next_h));
  }
  {
    StageScope stage(metrics_, "count_wait", work->cs.h, work->cs.k);
    FLIPPER_RETURN_IF_ERROR(work->future.Join());
  }
  if (plan.strategy == CellStrategy::kScan || plan.truncated) {
    // The scan route counts inline on the driver thread and truncation
    // must raise its error in serial position — carry the plan to the
    // next row's first spec instead of starting anything here.
    cross->carried = std::move(plan);
    return Status::OK();
  }
  auto started = std::make_unique<CellWork>();
  started->cs.h = next_h;
  started->cs.k = 2;
  started->cs.generated = plan.candidates.size();
  started->candidates = std::move(plan.candidates);
  started->cs.counted = started->candidates.size();
  cross->ban_version = plan.ban_version;
  // The previous count is joined, so the counter's pooled scratch is
  // free: begin the cross count before the row tail evaluates.
  StageScope stage(metrics_, "count_start", next_h, 2);
  started->future = counter_->StartCount(views_, next_h,
                                         started->candidates,
                                         &started->supports);
  cross->started = std::move(started);
  return Status::OK();
}

Status CellPipeline::TruncatedError(int h, int k) const {
  return Status::ResourceExhausted(
      "cell Q(" + std::to_string(h) + "," + std::to_string(k) +
      ") exceeded the candidate limit (" +
      std::to_string(config_.max_candidates_per_cell) + ")");
}

void CellPipeline::EvictCompletedRow(Row* row) {
  for (Cell& cell : *row) {
    if (config_.pruning.flipping) {
      cell.Retain([](const ItemsetRecord& r) { return r.chain_alive; });
    } else {
      cell.Retain([](const ItemsetRecord& r) { return r.frequent; });
    }
  }
}

}  // namespace flipper
