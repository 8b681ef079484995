// ScanCounterTable: the hash counter of SupportCounter's
// occurring-combination scans (the scan-driven cell), an
// open-addressed table whose keys live in a bump arena instead of
// per-node allocations. ForEachCombination is the enumerator that
// feeds it.
//
// Layout: a power-of-two slot array of entry references (linear
// probing), an insertion-ordered entry column {key_pos, count}, and a
// key arena holding each key as k consecutive ItemIds. All three are
// reset — never freed — between cells, so a warm table counts a whole
// scan with zero heap allocations inside Increment(); any growth that
// does happen (cold table, or a cell with more distinct combinations
// than ever seen) is counted in grow_events() for the debug
// zero-allocation assertions.
//
// Counts are exact and emission order is derived by sorting the
// entries, so cell contents are reproducible across thread counts.

#ifndef FLIPPER_CORE_SCAN_COUNTER_H_
#define FLIPPER_CORE_SCAN_COUNTER_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "data/itemset.h"
#include "data/types.h"

namespace flipper {

class ScanCounterTable {
 public:
  /// One counted key: `key_pos` indexes the k consecutive ItemIds of
  /// the key inside the arena.
  struct Entry {
    uint32_t key_pos;
    uint32_t count;
  };

  /// Prepares the table for a new cell of subset size `k`. Keeps every
  /// allocation (slots, entries, arena) for reuse.
  void Reset(int k);

  /// Number of distinct keys counted so far.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  int k() const { return k_; }

  /// Adds `delta` to the counter of `combo` (must have size k),
  /// inserting it at zero first when absent.
  void Increment(const Itemset& combo, uint32_t delta = 1) {
    assert(combo.size() == k_);
    Increment(combo.begin(), delta);
  }

  /// Raw-key variant for the shard merge: `key` points at k sorted
  /// ItemIds (e.g. another table's KeyOf span).
  void Increment(const ItemId* key, uint32_t delta);

  /// Counted keys in insertion order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// The k ItemIds of an entry's key.
  std::span<const ItemId> KeyOf(const Entry& entry) const {
    return {arena_.data() + entry.key_pos, static_cast<size_t>(k_)};
  }

  /// The entry's key as an Itemset (keys are stored sorted).
  Itemset ItemsetOf(const Entry& entry) const {
    Itemset out;
    for (ItemId item : KeyOf(entry)) out.PushBack(item);
    return out;
  }

  /// Heap allocations performed inside Increment() since construction:
  /// slot-array rehashes plus entry/arena growth. A warm table
  /// (Reset() after a previous cell of at least this cardinality)
  /// stays at its previous value for a whole scan — asserted by the
  /// zero-allocation tests.
  uint64_t grow_events() const { return grow_events_; }

  /// Heap bytes currently held (capacity, all three columns).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(uint32_t) +
                                entries_.capacity() * sizeof(Entry) +
                                arena_.capacity() * sizeof(ItemId));
  }

 private:
  void Rehash(size_t new_slot_count);

  int k_ = 0;
  uint32_t mask_ = 0;
  /// 1-based entry references; 0 = empty slot. Power-of-two sized.
  std::vector<uint32_t> slots_;
  std::vector<Entry> entries_;
  /// Bump arena of keys: entry i's key occupies
  /// [entries_[i].key_pos, entries_[i].key_pos + k_).
  std::vector<ItemId> arena_;
  uint64_t grow_events_ = 0;
};

/// Calls `fn(itemset)` for every k-combination of `items` (sorted
/// ascending, duplicate-free), in lexicographic order. Iterative —
/// an explicit index stack plus the caller's single scratch itemset,
/// pushed/popped in place — so probing a wide transaction performs no
/// allocation and no per-level itemset copies. `scratch` is cleared
/// on entry and left empty on return.
template <typename Fn>
void ForEachCombination(std::span<const ItemId> items, int k,
                        Itemset* scratch, const Fn& fn) {
  const size_t n = items.size();
  scratch->Clear();
  if (k <= 0 || n < static_cast<size_t>(k)) return;
  // idx[d] = index into `items` chosen at depth d; scratch holds the
  // items of depths [0, depth) at the top of the loop.
  std::array<size_t, kMaxItemsetSize> idx;
  int depth = 0;
  idx[0] = 0;
  while (true) {
    const size_t tail = static_cast<size_t>(k - depth);
    if (idx[static_cast<size_t>(depth)] + tail > n) {
      // No room for the remaining positions — backtrack.
      if (depth == 0) break;
      --depth;
      scratch->PopBack();
      ++idx[static_cast<size_t>(depth)];
      continue;
    }
    scratch->PushBack(items[idx[static_cast<size_t>(depth)]]);
    if (depth + 1 == k) {
      fn(*scratch);
      scratch->PopBack();
      ++idx[static_cast<size_t>(depth)];
    } else {
      idx[static_cast<size_t>(depth + 1)] =
          idx[static_cast<size_t>(depth)] + 1;
      ++depth;
    }
  }
}

}  // namespace flipper

#endif  // FLIPPER_CORE_SCAN_COUNTER_H_
