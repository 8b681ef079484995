#include "core/cell_evaluator.h"

#include <algorithm>
#include <array>
#include <numeric>
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

/// The permutation that sorts `candidates` (all of size k)
/// lexicographically: a stable LSD radix sort over their items, last
/// item first, in 11-bit digits up to the batch's largest id.
std::vector<uint32_t> LexicographicOrder(std::span<const Itemset> candidates,
                                         int k) {
  constexpr int kDigitBits = 11;
  constexpr uint32_t kBuckets = 1u << kDigitBits;
  const size_t n = candidates.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  ItemId max_id = 0;
  for (const Itemset& c : candidates) max_id = std::max(max_id, c.back());
  std::vector<uint32_t> next(n);
  std::vector<ItemId> keys(n);
  std::array<uint32_t, kBuckets + 1> start{};
  for (int pos = k - 1; pos >= 0; --pos) {
    for (size_t i = 0; i < n; ++i) keys[i] = candidates[i][pos];
    for (int shift = 0; shift < 32; shift += kDigitBits) {
      if (shift > 0 && (max_id >> shift) == 0) break;
      auto digit = [&](uint32_t i) {
        return (keys[i] >> shift) & (kBuckets - 1);
      };
      start.fill(0);
      for (uint32_t i : order) ++start[digit(i) + 1];
      for (uint32_t b = 1; b <= kBuckets; ++b) start[b] += start[b - 1];
      for (uint32_t i : order) next[start[digit(i)]++] = i;
      order.swap(next);
    }
  }
  return order;
}

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
  const size_t ids = tax_.id_space();
  sibp_order_.assign(slots, {});
  sibp_qualified_col_.assign(slots, {});
  usable_.assign(slots, {});
  max_corr_.assign(ids, 0.0);
  for (int h = 1; h <= tax_.height(); ++h) {
    const auto& items = freq_items[static_cast<size_t>(h)];
    usable_[static_cast<size_t>(h)].assign(ids, 0);
    for (ItemId item : items) usable_[static_cast<size_t>(h)][item] = 1;
    sibp_qualified_col_[static_cast<size_t>(h)].assign(ids, 0);
    auto& order = sibp_order_[static_cast<size_t>(h)];
    order = items;
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
                             std::span<const uint32_t> parents,
                             const Cell* parent_cell, CellStats* cs,
                             MiningStats* stats) {
  const uint32_t min_count = config_.MinCount(h, num_txns_);
  const size_t n = candidates.size();
  // Rows are stored in itemset order.
  const std::vector<uint32_t> order = LexicographicOrder(candidates, k);
  Cell cell(k, tracker_);
  cell.Resize(n);
  std::array<uint32_t, kMaxItemsetSize> item_sups{};
  for (size_t row = 0; row < n; ++row) {
    if (row % kCancelCheckStride == 0 && config_.cancel != nullptr &&
        config_.cancel->Fired()) {
      break;
    }
    const uint32_t i = order[row];
    const Itemset& itemset = candidates[i];
    const uint32_t sup = supports[i];
    const bool frequent = sup >= min_count;
    for (int j = 0; j < k; ++j) {
      item_sups[static_cast<size_t>(j)] = views_.ItemSupport(h, itemset[j]);
    }
    const double corr = Correlation(
        config_.measure, sup, {item_sups.data(), static_cast<size_t>(k)});
    const Label label =
        LabelOf(corr, config_.gamma, config_.epsilon, frequent);

    uint32_t parent = Cell::kNoRow;
    if (!parents.empty()) {
      parent = parents[i];
    } else if (parent_cell != nullptr) {
      parent = parent_cell->Find(itemset.Map([&](ItemId item) {
        return tax_.AncestorAtLevel(item, h - 1);
      }));
    }
    bool alive = frequent && label != Label::kNone;
    if (h > 1) {
      alive = alive && parent != Cell::kNoRow &&
              parent_cell->has(parent, Cell::kChainAlive) &&
              Flips(parent_cell->label(parent), label);
    }

    if (frequent) ++cs->frequent;
    if (label != Label::kNone) ++cs->labeled;
    if (label == Label::kPositive) ++stats->num_positive;
    if (label == Label::kNegative) ++stats->num_negative;
    if (alive) ++cs->alive;
    const uint8_t flags = (frequent ? Cell::kFrequent : 0) |
                          (alive ? Cell::kChainAlive : 0);
    cell.Set(row, itemset, sup, corr, label, flags, parent);
  }
  return cell;
}

void CellEvaluator::SibpUpdate(int h, int k, const Cell& cell) {
  if (!config_.pruning.sibp) return;
  // Max Corr per item over the cell's counted itemsets (an item the
  // cell lacks reads 0; gamma > 0, so a max below 0 walks alike).
  for (size_t row = 0; row < cell.size(); ++row) {
    for (ItemId item : cell.items(row)) {
      max_corr_[item] = std::max(max_corr_[item], cell.corr(row));
    }
  }
  // Walk L_h from the smallest support; an item qualifies while its max
  // Corr stays below gamma; the first failure stops the walk
  // (Corollary 2 requires the smallest-support prefix). Banned items
  // count as removed from the database.
  auto& qualified = sibp_qualified_col_[static_cast<size_t>(h)];
  const auto& usable = usable_[static_cast<size_t>(h)];
  for (ItemId item : sibp_order_[static_cast<size_t>(h)]) {
    if (usable[item] == 0) continue;
    if (max_corr_[item] >= config_.gamma) break;
    if (qualified[item] == 0) qualified[item] = k;
  }
  for (size_t row = 0; row < cell.size(); ++row) {
    for (ItemId item : cell.items(row)) max_corr_[item] = 0.0;
  }
}

void CellEvaluator::SibpBan(int h, int k, MiningStats* stats) {
  if (!config_.pruning.sibp || h < 2) return;
  auto& usable = usable_[static_cast<size_t>(h)];
  const auto& qualified = sibp_qualified_col_[static_cast<size_t>(h)];
  const auto& parent_qualified =
      sibp_qualified_col_[static_cast<size_t>(h - 1)];
  for (ItemId item : sibp_order_[static_cast<size_t>(h)]) {
    const int col = qualified[item];
    if (col == 0 || col > k || usable[item] == 0) continue;
    const int parent_col = parent_qualified[tax_.AncestorAtLevel(item, h - 1)];
    if (parent_col != 0 && parent_col <= k) {
      usable[item] = 0;
      ++stats->sibp_banned_items;
    }
  }
}

void AssemblePatterns(const std::vector<CellRow>& table,
                      MiningResult* result) {
  const size_t height = table.size() - 1;
  for (const Cell& leaf_cell : table[height]) {
    const auto column = static_cast<size_t>(leaf_cell.k() - 2);
    for (size_t leaf_row = 0; leaf_row < leaf_cell.size(); ++leaf_row) {
      if (!leaf_cell.has(leaf_row, Cell::kChainAlive)) continue;
      FlippingPattern pattern;
      pattern.leaf_itemset = leaf_cell.itemset(leaf_row);
      pattern.chain.resize(height);
      auto row = static_cast<uint32_t>(leaf_row);
      for (size_t h = height; h >= 1; --h) {
        FLIPPER_CHECK(row != Cell::kNoRow)
            << "alive itemset without a parent row";
        const Cell& cell = table[h][column];
        pattern.chain[h - 1] = {static_cast<int>(h), cell.itemset(row),
                                cell.support(row), cell.corr(row),
                                cell.label(row)};
        row = cell.parent(row);
      }
      result->patterns.push_back(std::move(pattern));
    }
  }
  SortPatterns(&result->patterns);
}

}  // namespace flipper
