#include "core/candidate_gen.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace flipper {

std::vector<Itemset> GeneratePairs(std::span<const ItemId> items) {
  assert(std::is_sorted(items.begin(), items.end()));
  std::vector<Itemset> out;
  out.reserve(items.size() * (items.size() - 1) / 2);
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      out.push_back(Itemset::Pair(items[i], items[j]));
    }
  }
  return out;
}

namespace {

/// Calls `fn(child)` for each effective child of `node` at level `h`
/// that `usable` admits.
template <typename Fn>
void ForEachUsableChild(ItemId node, const Taxonomy& taxonomy, int h,
                        std::span<const uint8_t> usable, const Fn& fn) {
  if (taxonomy.IsLeaf(node) && taxonomy.LevelOf(node) < h) {
    // Shallow leaf: represents itself at level h (Figure-3[B]).
    if (usable[node] != 0) fn(node);
    return;
  }
  for (ItemId child : taxonomy.ChildrenOf(node)) {
    if (usable[child] != 0) fn(child);
  }
}

}  // namespace

double ChildCombinations(std::span<const ItemId> parent,
                         const Taxonomy& taxonomy, int h,
                         std::span<const uint8_t> usable) {
  double product = 1.0;
  for (ItemId node : parent) {
    double count = 0.0;
    ForEachUsableChild(node, taxonomy, h, usable,
                       [&](ItemId) { count += 1.0; });
    product *= count;
    if (product == 0.0) break;
  }
  return product;
}

void VerticalExpand(std::span<const ItemId> parent,
                    const Taxonomy& taxonomy, int h,
                    std::span<const uint8_t> usable,
                    std::vector<Itemset>* out, size_t max_out,
                    bool* truncated) {
  const int k = static_cast<int>(parent.size());
  assert(k >= 1);

  // Effective children per parent item.
  std::array<std::vector<ItemId>, kMaxItemsetSize> options;
  for (int i = 0; i < k; ++i) {
    std::vector<ItemId>& opts = options[static_cast<size_t>(i)];
    ForEachUsableChild(parent[static_cast<size_t>(i)], taxonomy, h, usable,
                       [&](ItemId child) { opts.push_back(child); });
    if (opts.empty()) return;  // no viable combination
  }

  // Cartesian product via odometer enumeration. Children of distinct
  // parents are distinct nodes, so every combination is a k-itemset.
  std::array<size_t, kMaxItemsetSize> idx{};
  for (;;) {
    if (out->size() >= max_out) {
      if (truncated != nullptr) *truncated = true;
      return;
    }
    Itemset& candidate = out->emplace_back();
    for (int i = 0; i < k; ++i) {
      candidate.Insert(options[static_cast<size_t>(i)]
                              [idx[static_cast<size_t>(i)]]);
    }
    assert(candidate.size() == k);

    int pos = k - 1;
    while (pos >= 0) {
      const auto upos = static_cast<size_t>(pos);
      if (++idx[upos] < options[upos].size()) break;
      idx[upos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
}

bool HasKnownInfrequentSubset(const Itemset& candidate,
                              const Cell& prev_in_row) {
  for (int drop = 0; drop < candidate.size(); ++drop) {
    const uint32_t row = prev_in_row.Find(candidate.WithoutIndex(drop));
    if (row != Cell::kNoRow && !prev_in_row.has(row, Cell::kFrequent)) {
      return true;
    }
  }
  return false;
}

}  // namespace flipper
