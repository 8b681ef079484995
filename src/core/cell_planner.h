// CellPlanner: the candidate-generation stage of the cell pipeline.
// For each cell Q(h,k) it selects a strategy and (for the in-memory
// routes) materializes the candidate list:
//
//   kPairs          — all 2-itemsets over row 1's frequent items;
//   kAprioriJoin    — prefix join within row 1 (whose cells are
//                     complete, so subset pruning is exact);
//   kVerticalExpand — the cartesian children product of each eligible
//                     parent itemset of Q(h-1,k);
//   kScan           — the scan-driven route, picked when the
//                     cartesian product estimate dwarfs the expected
//                     k-subset probes of one database scan: the cell
//                     counts every occurring k-combination of its
//                     participating items
//                     (SupportCounter::StartCountOccurring).
//
// Planning is a pure function of completed cells plus the level's
// usable-item bitmap (frequent and not SIBP-banned).

#ifndef FLIPPER_CORE_CELL_PLANNER_H_
#define FLIPPER_CORE_CELL_PLANNER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/cell.h"
#include "core/config.h"
#include "core/level_views.h"
#include "data/itemset.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

/// The flag of the parents eligible for vertical growth.
inline Cell::Flag ParentFlag(const MiningConfig& config) {
  return config.pruning.flipping ? Cell::kChainAlive : Cell::kFrequent;
}

enum class CellStrategy { kPairs, kAprioriJoin, kVerticalExpand, kScan };

/// Expected number of k-subset probes of a level-h database scan,
/// from the level's transaction-width histogram. `live_fraction` is
/// the expected rate at which the scan's per-transaction item filter
/// keeps an item (participating items / level vocabulary): the
/// enumeration runs over filtered transactions, so widths scale by it
/// before the C(w, k) estimate. 1.0 reproduces the unfiltered upper
/// bound. The planner compares this against the cartesian children
/// product to pick the strategy.
double ScanEnumerationCost(const LevelViews& views, int h, int k,
                           double live_fraction = 1.0);

/// Output of the planning stage for one cell. For kScan the candidate
/// list stays empty — the scan-driven route discovers candidates and
/// supports together during its database scan.
struct CellPlan {
  CellStrategy strategy = CellStrategy::kVerticalExpand;
  std::vector<Itemset> candidates;
  /// kVerticalExpand only: each candidate's parent row in Q(h-1,k).
  std::vector<uint32_t> parents;
  /// kScan only: the participating items (frequent at level h, not
  /// SIBP-banned), ascending.
  std::vector<ItemId> items;
  /// Generation hit MiningConfig::max_candidates_per_cell.
  bool truncated = false;
};

class CellPlanner {
 public:
  /// All references must outlive the planner. `freq_items[h]` holds
  /// level h's frequent single items sorted by id.
  CellPlanner(const Taxonomy& taxonomy, const MiningConfig& config,
              const LevelViews& views,
              const std::vector<std::vector<ItemId>>& freq_items)
      : tax_(taxonomy),
        config_(config),
        views_(views),
        freq_items_(freq_items) {}

  /// Row-1 generation: pairs at k == 2, Apriori prefix join from the
  /// completed Q(1,k-1) otherwise. Row 1 ignores the ban set (SIBP
  /// never bans level-1 items).
  CellPlan PlanRow1(int k, const Cell* prev_in_row) const;

  /// Rows >= 2: estimates the cartesian children product against the
  /// scan-enumeration cost, picks the strategy, and runs the vertical
  /// expansion for the cartesian route. `usable` is level h's item
  /// bitmap (CellEvaluator::usable). Pure — reads only completed
  /// cells and `usable`.
  CellPlan PlanVertical(int h, int k, const Cell& parent_cell,
                        std::span<const uint8_t> usable) const;

 private:
  const Taxonomy& tax_;
  const MiningConfig& config_;
  const LevelViews& views_;
  const std::vector<std::vector<ItemId>>& freq_items_;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_CELL_PLANNER_H_
