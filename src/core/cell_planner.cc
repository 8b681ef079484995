#include "core/cell_planner.h"

#include <algorithm>
#include <utility>

#include "core/candidate_gen.h"

namespace flipper {

double ScanEnumerationCost(const LevelViews& views, int h, int k,
                           double live_fraction) {
  const std::vector<uint32_t>& hist = views.Level(h).width_hist;
  const double rate = std::clamp(live_fraction, 0.0, 1.0);
  double total = 0.0;
  for (size_t w = static_cast<size_t>(k); w < hist.size(); ++w) {
    if (hist[w] == 0) continue;
    // C(ew, k) with the expected filtered width ew = w * rate, capped.
    const double ew = static_cast<double>(w) * rate;
    if (ew < static_cast<double>(k)) continue;
    double combos = 1.0;
    for (int i = 0; i < k; ++i) {
      combos *= (ew - static_cast<double>(i)) /
                static_cast<double>(k - i);
      if (combos > 1e15) break;
    }
    total += combos * hist[w];
    if (total > 1e15) return total;
  }
  return total;
}

CellPlan CellPlanner::PlanRow1(int k, const Cell* prev_in_row) const {
  CellPlan plan;
  if (k == 2) {
    plan.strategy = CellStrategy::kPairs;
    plan.candidates = GeneratePairs(freq_items_[1]);
    plan.truncated =
        plan.candidates.size() > config_.max_candidates_per_cell;
  } else {
    plan.strategy = CellStrategy::kAprioriJoin;
    const Cell& prev = *prev_in_row;
    std::vector<Itemset> frequent;
    for (size_t row = 0; row < prev.size(); ++row) {
      if (prev.has(row, Cell::kFrequent)) frequent.push_back(prev.itemset(row));
    }
    plan.candidates = AprioriJoin(
        frequent,
        [&](const Itemset& subset) {
          const uint32_t row = prev.Find(subset);
          return row != Cell::kNoRow && prev.has(row, Cell::kFrequent);
        },
        config_.max_candidates_per_cell, &plan.truncated);
  }
  return plan;
}

CellPlan CellPlanner::PlanVertical(int h, int k, const Cell& parent_cell,
                                   std::span<const uint8_t> usable) const {
  CellPlan plan;
  const Cell::Flag eligible = ParentFlag(config_);

  // Strategy selection: the cartesian children product can vastly
  // exceed the number of k-subsets actually present in the data
  // (every absent combination has support 0 and can never be
  // frequent). Estimate both and take the cheaper route.
  double cartesian_total = 0.0;
  bool any_parent = false;
  for (size_t row = 0; row < parent_cell.size(); ++row) {
    if (!parent_cell.has(row, eligible)) continue;
    any_parent = true;
    cartesian_total +=
        ChildCombinations(parent_cell.items(row), tax_, h, usable);
    if (cartesian_total > 1e15) break;
  }
  if (config_.enable_scan_cells && any_parent && cartesian_total > 65536) {
    // The scan cell enumerates k-subsets of *filtered* transactions
    // (participating items only), so the raw width histogram
    // overestimates its cost. Scale widths by the participating
    // fraction of the level's occurring vocabulary — the filter's hit
    // rate — before the C(w, k) estimate. Strategy selection never
    // changes mined output (both routes are exact), only cost.
    size_t vocab = 0;
    std::vector<ItemId> live;  // ascending: NodesAtLevel is sorted
    for (ItemId node : tax_.NodesAtLevel(h)) {
      if (views_.ItemSupport(h, node) == 0) continue;
      ++vocab;
      if (usable[node] != 0) live.push_back(node);
    }
    const double live_fraction =
        vocab > 0 ? static_cast<double>(live.size()) /
                        static_cast<double>(vocab)
                  : 1.0;
    if (ScanEnumerationCost(views_, h, k, live_fraction) <
        cartesian_total) {
      plan.strategy = CellStrategy::kScan;
      plan.items = std::move(live);
      return plan;
    }
  }

  plan.strategy = CellStrategy::kVerticalExpand;
  const auto expected = static_cast<size_t>(std::min(
      cartesian_total,
      static_cast<double>(config_.max_candidates_per_cell)));
  plan.candidates.reserve(expected);
  plan.parents.reserve(expected);
  for (size_t row = 0; row < parent_cell.size() && !plan.truncated; ++row) {
    if (!parent_cell.has(row, eligible)) continue;
    VerticalExpand(parent_cell.items(row), tax_, h, usable,
                   &plan.candidates, config_.max_candidates_per_cell,
                   &plan.truncated);
    plan.parents.resize(plan.candidates.size(), static_cast<uint32_t>(row));
  }
  return plan;
}

}  // namespace flipper
