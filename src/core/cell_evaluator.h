// CellEvaluator: the evaluation stage of the cell pipeline. Turns a
// counted candidate batch into a Cell of ItemsetRecords (correlation,
// label, chain-alive flag), carries the pattern chains of alive
// itemsets forward level by level, and owns the SIBP bookkeeping
// (per-level qualification walk + ban set, §4.3.2). The pipeline calls
// Evaluate / SibpUpdate / SibpBan in the paper's cell order, and the
// planner reads banned(h) when it grows the next cell of level h.

#ifndef FLIPPER_CORE_CELL_EVALUATOR_H_
#define FLIPPER_CORE_CELL_EVALUATOR_H_

#include <span>
#include <unordered_map>
#include <unordered_set>
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

  /// Builds cell Q(h,k) from the counted batch: support/correlation/
  /// label per record, the flip check against `parent_cell` (null for
  /// row 1), chain extension for alive itemsets. Updates cs->frequent/
  /// labeled/alive and stats->num_positive/num_negative. Stops early
  /// when config.cancel fires, leaving the cell (and the chains and
  /// counts above) partial: callers check the token before using it.
  Cell Evaluate(int h, int k, std::span<const Itemset> candidates,
                std::span<const uint32_t> supports,
                const Cell* parent_cell, CellStats* cs,
                MiningStats* stats);

  /// SIBP per-cell bookkeeping: updates the per-item max-Corr walk of
  /// L_h and records first-qualification columns (§4.3.2).
  void SibpUpdate(int h, int k, const Cell& cell);

  /// SIBP ban step: a level-h item whose qualification column and
  /// whose parent's level-(h-1) qualification column are both <= k is
  /// excluded from all wider candidate itemsets.
  void SibpBan(int h, int k, MiningStats* stats);

  /// Level h's current ban set.
  const std::unordered_set<ItemId>& banned(int h) const {
    return banned_[static_cast<size_t>(h)];
  }

  /// Drops the chains of a retired row.
  void ReleaseChains(int h) { chains_[static_cast<size_t>(h)].clear(); }

  /// Emits patterns for the alive records of the final row (sorted).
  void AssemblePatterns(const std::vector<Cell>& last_row,
                        MiningResult* result) const;

 private:
  /// Pattern chains of the alive itemsets of one row.
  using ChainMap =
      std::unordered_map<Itemset, std::vector<LevelStat>, ItemsetHash>;

  const Taxonomy& tax_;
  const MiningConfig& config_;
  const LevelViews& views_;
  MemoryTracker* tracker_;
  uint32_t num_txns_ = 0;

  /// SIBP's L_h: frequent items sorted by ascending support.
  std::vector<std::vector<ItemId>> sibp_order_;
  /// First column at which an item entered R_h.
  std::vector<std::unordered_map<ItemId, int>> sibp_qualified_col_;
  /// Items banned from further candidates at their level.
  std::vector<std::unordered_set<ItemId>> banned_;
  /// chains_[h]: generalization chains of row h's alive itemsets.
  std::vector<ChainMap> chains_;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_CELL_EVALUATOR_H_
