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

std::vector<Itemset> AprioriJoin(std::span<const Itemset> prev_frequent,
                                 const Cell& prev, size_t max_out,
                                 bool* truncated) {
  std::vector<Itemset> out;
  if (truncated != nullptr) *truncated = false;
  for (size_t i = 0; i < prev_frequent.size(); ++i) {
    if (out.size() >= max_out) {
      if (truncated != nullptr) *truncated = true;
      return out;
    }
    for (size_t j = i + 1; j < prev_frequent.size(); ++j) {
      std::optional<Itemset> joined =
          Itemset::PrefixJoin(prev_frequent[i], prev_frequent[j]);
      if (!joined.has_value()) {
        // The list is sorted lexicographically, so once the prefix of
        // j diverges from i's no later j will share it.
        break;
      }
      // Subset pruning: every (k-1)-subset must be frequent in the
      // complete previous cell. The two join operands are subsets by
      // construction; check the remaining k-1 subsets.
      bool all_frequent = true;
      for (int drop = 0; drop + 2 < joined->size() && all_frequent;
           ++drop) {
        const ItemsetRecord* rec = prev.Find(joined->WithoutIndex(drop));
        if (rec == nullptr || !rec->frequent) all_frequent = false;
      }
      if (all_frequent) out.push_back(*joined);
    }
  }
  return out;
}

void VerticalExpand(const Itemset& parent, const Taxonomy& taxonomy,
                    int h, const std::function<bool(ItemId)>& child_ok,
                    std::vector<Itemset>* out, size_t max_out,
                    bool* truncated) {
  const int k = parent.size();
  assert(k >= 1);

  // Effective children per parent item.
  std::array<std::vector<ItemId>, kMaxItemsetSize> options;
  for (int i = 0; i < k; ++i) {
    const ItemId node = parent[i];
    std::vector<ItemId>& opts = options[static_cast<size_t>(i)];
    if (taxonomy.IsLeaf(node) && taxonomy.LevelOf(node) < h) {
      // Shallow leaf: represents itself at level h (Figure-3[B]).
      if (child_ok(node)) opts.push_back(node);
    } else {
      for (ItemId child : taxonomy.ChildrenOf(node)) {
        if (child_ok(child)) opts.push_back(child);
      }
    }
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
    Itemset candidate;
    for (int i = 0; i < k; ++i) {
      candidate.Insert(options[static_cast<size_t>(i)]
                              [idx[static_cast<size_t>(i)]]);
    }
    assert(candidate.size() == k);
    out->push_back(candidate);

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
    const ItemsetRecord* rec =
        prev_in_row.Find(candidate.WithoutIndex(drop));
    if (rec != nullptr && !rec->frequent) return true;
  }
  return false;
}

}  // namespace flipper
