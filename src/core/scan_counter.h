// ScanCounterTable: the scan-driven cell's hash counter, an
// open-addressed table whose keys live in a bump arena instead of
// per-node allocations.
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

}  // namespace flipper

#endif  // FLIPPER_CORE_SCAN_COUNTER_H_
