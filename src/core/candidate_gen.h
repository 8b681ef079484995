// Candidate generation for the two growth directions of the search
// space table M (paper §4.1):
//
//   horizontal — Apriori prefix join within a row (used to bootstrap
//     row 1, whose cells are complete);
//   vertical   — expanding an (h-1,k)-itemset into all combinations of
//     its items' children (rows >= 2). A leaf shallower than the target
//     level acts as its own child (Figure-3[B] self-copies).

#ifndef FLIPPER_CORE_CANDIDATE_GEN_H_
#define FLIPPER_CORE_CANDIDATE_GEN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "core/cell.h"
#include "data/itemset.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

/// All 2-itemsets over `items` (which must be sorted ascending).
std::vector<Itemset> GeneratePairs(std::span<const ItemId> items);

/// Classic Apriori join + subset pruning over a *complete* cell (row
/// 1, or a level of the BASIC oracle): joins its frequent k-itemsets
/// `frequent` (sorted lexicographically) that share a (k-1)-prefix and
/// keeps results whose every k-subset `is_frequent` accepts. Results
/// come out in lexicographic order. Generation stops early once
/// `max_out` results exist; `*truncated` (if non-null) reports whether
/// that happened, so callers can surface ResourceExhausted without
/// first materializing an oversized candidate vector.
template <typename IsFrequent>
std::vector<Itemset> AprioriJoin(std::span<const Itemset> frequent,
                                 const IsFrequent& is_frequent,
                                 size_t max_out = SIZE_MAX,
                                 bool* truncated = nullptr) {
  std::vector<Itemset> out;
  if (truncated != nullptr) *truncated = false;
  for (size_t i = 0; i < frequent.size(); ++i) {
    if (out.size() >= max_out) {
      if (truncated != nullptr) *truncated = true;
      return out;
    }
    for (size_t j = i + 1; j < frequent.size(); ++j) {
      std::optional<Itemset> joined =
          Itemset::PrefixJoin(frequent[i], frequent[j]);
      // The list is sorted, so once the prefix of j diverges from i's
      // no later j will share it.
      if (!joined.has_value()) break;
      // Subset pruning: the two join operands are subsets by
      // construction; check the remaining k-1 subsets.
      bool all_frequent = true;
      for (int drop = 0; drop + 2 < joined->size() && all_frequent;
           ++drop) {
        all_frequent = is_frequent(joined->WithoutIndex(drop));
      }
      if (all_frequent) out.push_back(*joined);
    }
  }
  return out;
}

/// The number of candidates VerticalExpand yields for `parent`: the
/// product of its items' effective children counts.
double ChildCombinations(std::span<const ItemId> parent,
                         const Taxonomy& taxonomy, int h,
                         std::span<const uint8_t> usable);

/// Vertical growth: the cartesian product of the effective children of
/// each of `parent`'s items at level `h` (children of internal nodes;
/// the node itself for shallow leaves). Only children whose entry in
/// `usable` (indexed by item id) is non-zero take part — the caller
/// clears infrequent and SIBP-banned items. Appends to `out`,
/// stopping once out->size() reaches `max_out` (reported through
/// `truncated` when non-null).
void VerticalExpand(std::span<const ItemId> parent,
                    const Taxonomy& taxonomy, int h,
                    std::span<const uint8_t> usable,
                    std::vector<Itemset>* out,
                    size_t max_out = SIZE_MAX,
                    bool* truncated = nullptr);

/// The known-infrequent subset test for rows >= 2 (where cells are
/// not complete): true when some (k-1)-subset of `candidate` was
/// counted in `prev_in_row` and found infrequent. Absent subsets are
/// unknown and do NOT prune.
bool HasKnownInfrequentSubset(const Itemset& candidate,
                              const Cell& prev_in_row);

/// Compacts `candidates` to those `keep` accepts, in order; `column`
/// (a per-candidate value such as its support or parent row), when
/// non-null, is compacted in step. Polls `cancel` (when non-null)
/// every 1024 candidates — a large filter runs for hundreds of
/// milliseconds — and stops once it fires, leaving a partial list the
/// caller must not use.
template <typename Keep>
void RetainCandidates(std::vector<Itemset>* candidates,
                      std::vector<uint32_t>* column,
                      const CancelToken* cancel, const Keep& keep) {
  size_t out = 0;
  for (size_t i = 0; i < candidates->size(); ++i) {
    if (i % 1024 == 0 && cancel != nullptr && cancel->Fired()) break;
    if (!keep((*candidates)[i])) continue;
    (*candidates)[out] = (*candidates)[i];
    if (column != nullptr) (*column)[out] = (*column)[i];
    ++out;
  }
  candidates->resize(out);
  if (column != nullptr) column->resize(out);
}

}  // namespace flipper

#endif  // FLIPPER_CORE_CANDIDATE_GEN_H_
