// Cell: the contents of one slot Q(h,k) of the paper's two-dimensional
// search-space table M (Figure 6) — the counted (h,k)-itemsets with
// their supports, correlation values, labels, flags and parent links.
//
// A cell is a set of parallel columns, one row per itemset, with the
// rows in lexicographic itemset order: the k items of row r are
// items()[r*k, r*k + k). Lookups are binary searches, and a pattern's
// chain is the sequence of parent links from a leaf-row cell up to
// row 1, so no chain is ever copied.
//
// Cells register their footprint with a MemoryTracker so that the
// Figure-9(b) memory comparison can be reproduced deterministically.

#ifndef FLIPPER_CORE_CELL_H_
#define FLIPPER_CORE_CELL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/memory_tracker.h"
#include "core/label.h"
#include "data/itemset.h"

namespace flipper {

class Cell {
 public:
  /// Row flags.
  enum Flag : uint8_t {
    kFrequent = 1,
    /// The flipping chain from level 1 down to this row's level is
    /// unbroken: every level frequent + labeled, labels alternating.
    kChainAlive = 2,
  };
  /// "No such row": a failed Find, or a parent link to a row that was
  /// never counted or has been evicted.
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// A cell of k-itemsets; `tracker` may be null (no accounting).
  Cell(int k, MemoryTracker* tracker) : k_(k), tracker_(tracker) {}
  ~Cell() { Release(); }

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;
  Cell(Cell&& other) noexcept { *this = std::move(other); }
  Cell& operator=(Cell&& other) noexcept;

  int k() const { return k_; }
  size_t size() const { return support_.size(); }
  bool empty() const { return support_.empty(); }

  std::span<const ItemId> items(size_t row) const {
    return {items_.data() + row * static_cast<size_t>(k_),
            static_cast<size_t>(k_)};
  }
  Itemset itemset(size_t row) const;
  uint32_t support(size_t row) const { return support_[row]; }
  double corr(size_t row) const { return corr_[row]; }
  Label label(size_t row) const { return label_[row]; }
  bool has(size_t row, Flag flag) const { return (flags_[row] & flag) != 0; }
  /// Row of this itemset's generalization in the parent cell Q(h-1,k),
  /// or kNoRow.
  uint32_t parent(size_t row) const { return parent_[row]; }

  /// The row holding `itemset`, or kNoRow. Binary search.
  uint32_t Find(const Itemset& itemset) const;

  /// Sizes the columns to `n` rows (and tracks their bytes); each row
  /// is then filled once with Set. The rows must end up in strictly
  /// ascending itemset order.
  void Resize(size_t n);
  void Set(size_t row, const Itemset& itemset, uint32_t support,
           double corr, Label label, uint8_t flags, uint32_t parent);

  /// Keeps the rows carrying `flag`, in order, and returns how many
  /// were dropped. `child` (may be null) is the cell Q(h+1,k) whose
  /// parent links point into this one: they are moved to the kept
  /// rows' new positions, and a link to a dropped row becomes kNoRow.
  size_t Retain(Flag flag, Cell* child);

  /// True when every row is non-positive — one half of the TPG
  /// premise (Theorem 3). An empty cell is vacuously all-non-positive.
  bool AllNonPositive() const;

  /// Tracked bytes per row of a k-itemset cell: one value of each
  /// column.
  static constexpr int64_t BytesPerRow(int k) {
    return static_cast<int64_t>(
        static_cast<size_t>(k) * sizeof(ItemId) + sizeof(uint32_t) +
        sizeof(double) + sizeof(Label) + sizeof(uint8_t) +
        sizeof(uint32_t));
  }

  /// Drops all rows and releases the tracked bytes.
  void Release();

 private:
  int k_ = 0;
  MemoryTracker* tracker_ = nullptr;
  std::vector<ItemId> items_;
  std::vector<uint32_t> support_;
  std::vector<double> corr_;
  std::vector<Label> label_;
  std::vector<uint8_t> flags_;
  std::vector<uint32_t> parent_;
};

/// A row of the search-space table M: row[k - 2] is Q(h, k).
using CellRow = std::vector<Cell>;

}  // namespace flipper

#endif  // FLIPPER_CORE_CELL_H_
