#include "core/cell_evaluator.h"

#include <algorithm>
#include <utility>

#include "common/cancellation.h"
#include "common/logging.h"
#include "core/label.h"
#include "core/pattern.h"
#include "measures/measure.h"

namespace flipper {
namespace {

/// Candidates between cancellation polls in Evaluate: a large cell's
/// evaluation runs for hundreds of milliseconds on the driver thread.
constexpr size_t kCancelCheckStride = 1024;

}  // namespace

CellEvaluator::CellEvaluator(
    const Taxonomy& taxonomy, const MiningConfig& config,
    const LevelViews& views, MemoryTracker* tracker,
    const std::vector<std::vector<ItemId>>& freq_items, uint32_t num_txns)
    : tax_(taxonomy),
      config_(config),
      views_(views),
      tracker_(tracker),
      num_txns_(num_txns) {
  const auto slots = static_cast<size_t>(tax_.height()) + 1;
  sibp_order_.assign(slots, {});
  sibp_qualified_col_.assign(slots, {});
  banned_.assign(slots, {});
  chains_.assign(slots, {});
  for (int h = 1; h <= tax_.height(); ++h) {
    auto& order = sibp_order_[static_cast<size_t>(h)];
    order = freq_items[static_cast<size_t>(h)];
    std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
      const uint32_t sa = views_.ItemSupport(h, a);
      const uint32_t sb = views_.ItemSupport(h, b);
      return sa != sb ? sa < sb : a < b;
    });
  }
}

Cell CellEvaluator::Evaluate(int h, int k,
                             std::span<const Itemset> candidates,
                             std::span<const uint32_t> supports,
                             const Cell* parent_cell, CellStats* cs,
                             MiningStats* stats) {
  const uint32_t min_count = config_.MinCount(h, num_txns_);
  Cell cell(h, k, tracker_);
  ChainMap& chains = chains_[static_cast<size_t>(h)];
  const ChainMap& parent_chains =
      chains_[static_cast<size_t>(h > 1 ? h - 1 : h)];
  std::vector<uint32_t> item_sups;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i % kCancelCheckStride == 0 && config_.cancel != nullptr &&
        config_.cancel->Fired()) {
      break;
    }
    const Itemset& itemset = candidates[i];
    const uint32_t sup = supports[i];
    ItemsetRecord record;
    record.support = sup;
    record.frequent = sup >= min_count;
    item_sups.clear();
    for (ItemId item : itemset) {
      item_sups.push_back(views_.ItemSupport(h, item));
    }
    record.corr = Correlation(config_.measure, sup, item_sups);
    record.label = LabelOf(record.corr, config_.gamma, config_.epsilon,
                           record.frequent);

    const ItemsetRecord* parent_record = nullptr;
    Itemset parent_itemset;
    if (h > 1) {
      parent_itemset = itemset.Map([&](ItemId item) {
        return tax_.AncestorAtLevel(item, h - 1);
      });
      if (parent_cell != nullptr) {
        parent_record = parent_cell->Find(parent_itemset);
      }
    }
    if (h == 1) {
      record.chain_alive =
          record.frequent && record.label != Label::kNone;
    } else {
      record.chain_alive = record.frequent &&
                           record.label != Label::kNone &&
                           parent_record != nullptr &&
                           parent_record->chain_alive &&
                           Flips(parent_record->label, record.label);
    }

    if (record.frequent) ++cs->frequent;
    if (record.label != Label::kNone) ++cs->labeled;
    if (record.label == Label::kPositive) ++stats->num_positive;
    if (record.label == Label::kNegative) ++stats->num_negative;
    if (record.chain_alive) {
      ++cs->alive;
      std::vector<LevelStat> chain;
      if (h > 1) {
        auto it = parent_chains.find(parent_itemset);
        FLIPPER_CHECK(it != parent_chains.end())
            << "alive itemset without parent chain";
        chain = it->second;
      }
      chain.push_back({h, itemset, sup, record.corr, record.label});
      chains.emplace(itemset, std::move(chain));
    }
    cell.Put(itemset, record);
  }
  return cell;
}

void CellEvaluator::SibpUpdate(int h, int k, const Cell& cell) {
  if (!config_.pruning.sibp) return;
  // Max Corr per item over the cell's counted itemsets.
  std::unordered_map<ItemId, double> max_corr;
  cell.ForEach([&](const Itemset& itemset, const ItemsetRecord& record) {
    for (ItemId item : itemset) {
      auto [it, inserted] = max_corr.try_emplace(item, record.corr);
      if (!inserted && record.corr > it->second) it->second = record.corr;
    }
  });
  // Walk L_h from the smallest support; an item qualifies while its max
  // Corr stays below gamma; the first failure stops the walk
  // (Corollary 2 requires the smallest-support prefix). Banned items
  // count as removed from the database.
  auto& qualified = sibp_qualified_col_[static_cast<size_t>(h)];
  const auto& banned = banned_[static_cast<size_t>(h)];
  for (ItemId item : sibp_order_[static_cast<size_t>(h)]) {
    if (banned.find(item) != banned.end()) continue;
    auto it = max_corr.find(item);
    const double mc = it == max_corr.end() ? 0.0 : it->second;
    if (mc >= config_.gamma) break;
    qualified.try_emplace(item, k);
  }
}

void CellEvaluator::SibpBan(int h, int k, MiningStats* stats) {
  if (!config_.pruning.sibp || h < 2) return;
  auto& banned = banned_[static_cast<size_t>(h)];
  const auto& qualified = sibp_qualified_col_[static_cast<size_t>(h)];
  const auto& parent_qualified =
      sibp_qualified_col_[static_cast<size_t>(h - 1)];
  for (const auto& [item, col] : qualified) {
    if (col > k || banned.find(item) != banned.end()) continue;
    const ItemId parent = tax_.AncestorAtLevel(item, h - 1);
    auto it = parent_qualified.find(parent);
    if (it != parent_qualified.end() && it->second <= k) {
      banned.insert(item);
      ++stats->sibp_banned_items;
    }
  }
}

void CellEvaluator::AssemblePatterns(const std::vector<Cell>& last_row,
                                     MiningResult* result) const {
  const ChainMap& chains = chains_[static_cast<size_t>(tax_.height())];
  for (const Cell& cell : last_row) {
    cell.ForEach([&](const Itemset& itemset, const ItemsetRecord& record) {
      if (!record.chain_alive) return;
      auto it = chains.find(itemset);
      FLIPPER_CHECK(it != chains.end())
          << "alive leaf itemset without chain";
      FlippingPattern pattern;
      pattern.leaf_itemset = itemset;
      pattern.chain = it->second;
      result->patterns.push_back(std::move(pattern));
    });
  }
  SortPatterns(&result->patterns);
}

}  // namespace flipper
