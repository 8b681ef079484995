#include "core/cell_planner.h"

#include <algorithm>
#include <unordered_map>
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
    std::vector<Itemset> prev_frequent = prev_in_row->Select(
        [](const ItemsetRecord& r) { return r.frequent; });
    plan.candidates =
        AprioriJoin(prev_frequent, *prev_in_row,
                    config_.max_candidates_per_cell, &plan.truncated);
  }
  return plan;
}

CellPlan CellPlanner::PlanVertical(
    int h, int k, const Cell& parent_cell,
    const std::unordered_set<ItemId>& banned) const {
  CellPlan plan;
  const uint32_t min_count = config_.MinCount(h, num_txns_);
  auto child_ok = [&](ItemId child) {
    if (views_.ItemSupport(h, child) < min_count) return false;
    return banned.find(child) == banned.end();
  };
  std::vector<Itemset> parents = parent_cell.Select(
      [this](const ItemsetRecord& r) { return ParentEligible(config_, r); });

  // Strategy selection: the cartesian children product can vastly
  // exceed the number of k-subsets actually present in the data
  // (every absent combination has support 0 and can never be
  // frequent). Estimate both and take the cheaper route.
  double cartesian_total = 0.0;
  std::unordered_map<ItemId, double> eligible_children;
  for (const Itemset& parent : parents) {
    double product = 1.0;
    for (ItemId node : parent) {
      auto [it, inserted] = eligible_children.try_emplace(node, 0.0);
      if (inserted) {
        double count = 0.0;
        if (tax_.IsLeaf(node) && tax_.LevelOf(node) < h) {
          count = child_ok(node) ? 1.0 : 0.0;
        } else {
          for (ItemId child : tax_.ChildrenOf(node)) {
            if (child_ok(child)) count += 1.0;
          }
        }
        it->second = count;
      }
      product *= it->second;
      if (product == 0.0) break;
    }
    cartesian_total += product;
    if (cartesian_total > 1e15) break;
  }
  if (config_.enable_scan_cells && !parents.empty() &&
      cartesian_total > 65536) {
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
      if (child_ok(node)) live.push_back(node);
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
  for (const Itemset& parent : parents) {
    VerticalExpand(parent, tax_, h, child_ok, &plan.candidates,
                   config_.max_candidates_per_cell, &plan.truncated);
    if (plan.truncated) break;
  }
  return plan;
}

}  // namespace flipper
