// CellEvaluator: the evaluation stage of the cell pipeline. Turns a
// counted candidate batch into a Cell (correlation, label, flags and
// the parent link that makes a pattern chain), and owns the SIBP
// bookkeeping (per-level qualification walk + bans, §4.3.2). The
// pipeline calls Evaluate / SibpUpdate / SibpBan in the paper's cell
// order, and the planner reads usable(h) when it grows the next cell of
// level h. AssemblePatterns walks the parent links of the finished
// table into the output patterns.

#ifndef FLIPPER_CORE_CELL_EVALUATOR_H_
#define FLIPPER_CORE_CELL_EVALUATOR_H_

#include <span>
#include <vector>

#include "common/memory_tracker.h"
#include "core/cell.h"
#include "core/config.h"
#include "core/level_views.h"
#include "core/mining_result.h"
#include "core/stats.h"
#include "data/itemset.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

class CellEvaluator {
 public:
  /// All references/pointers must outlive the evaluator.
  /// `freq_items[h]` holds level h's frequent single items sorted by
  /// id; the SIBP support-ascending orders L_h are derived here.
  CellEvaluator(const Taxonomy& taxonomy, const MiningConfig& config,
                const LevelViews& views, MemoryTracker* tracker,
                const std::vector<std::vector<ItemId>>& freq_items,
                uint32_t num_txns);

  /// Builds cell Q(h,k) from the counted batch, in itemset order:
  /// support/correlation/label per row, the parent link into
  /// `parent_cell` (null for row 1) and the flip check against it.
  /// `parents` holds each candidate's parent row, or is empty to have
  /// Evaluate look each one up. Updates cs->frequent/labeled/alive and
  /// stats->num_positive/num_negative. Stops early when config.cancel
  /// fires, leaving the cell and the counts partial: callers check the
  /// token before using them.
  Cell Evaluate(int h, int k, std::span<const Itemset> candidates,
                std::span<const uint32_t> supports,
                std::span<const uint32_t> parents,
                const Cell* parent_cell, CellStats* cs,
                MiningStats* stats);

  /// SIBP per-cell bookkeeping: updates the per-item max-Corr walk of
  /// L_h and records first-qualification columns (§4.3.2).
  void SibpUpdate(int h, int k, const Cell& cell);

  /// SIBP ban step: a level-h item whose qualification column and
  /// whose parent's level-(h-1) qualification column are both <= k is
  /// excluded from all wider candidate itemsets.
  void SibpBan(int h, int k, MiningStats* stats);

  /// Level h's items that may still enter a candidate — frequent at
  /// level h and not SIBP-banned — as a bitmap indexed by item id.
  std::span<const uint8_t> usable(int h) const {
    return usable_[static_cast<size_t>(h)];
  }

 private:
  const Taxonomy& tax_;
  const MiningConfig& config_;
  const LevelViews& views_;
  MemoryTracker* tracker_;
  uint32_t num_txns_ = 0;

  /// SIBP's L_h: frequent items sorted by ascending support.
  std::vector<std::vector<ItemId>> sibp_order_;
  /// First column at which an item entered R_h, indexed by item id
  /// (0: not yet).
  std::vector<std::vector<int>> sibp_qualified_col_;
  std::vector<std::vector<uint8_t>> usable_;
  /// SibpUpdate's per-item max Corr, indexed by item id; all zero
  /// between calls.
  std::vector<double> max_corr_;
};

/// Emits one pattern per chain-alive row of the leaf row `table[H]`,
/// sorted, walking each row's parent links up through the retired rows
/// `table[H-1]` … `table[1]` (table[h] is row h; table[0] is unused).
void AssemblePatterns(const std::vector<CellRow>& table,
                      MiningResult* result);

}  // namespace flipper

#endif  // FLIPPER_CORE_CELL_EVALUATOR_H_
