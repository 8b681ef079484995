#include "data/segment_catalog.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "data/transaction_db.h"

namespace flipper {

namespace {

/// The `k` most frequent item ids of `freq` (frequency descending, id
/// ascending tiebreak): Build's tracked set.
std::vector<ItemId> TopKByFrequency(std::span<const uint32_t> freq,
                                    uint32_t k) {
  std::vector<ItemId> by_freq(freq.size());
  std::iota(by_freq.begin(), by_freq.end(), 0);
  std::sort(by_freq.begin(), by_freq.end(), [&](ItemId a, ItemId b) {
    return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
  });
  by_freq.resize(std::min<size_t>(k, by_freq.size()));
  return by_freq;
}

/// Bit index of `item` in a `num_bits`-wide segment bitset (a
/// Fibonacci hash).
uint32_t HashBit(ItemId item, uint32_t num_bits) {
  return static_cast<uint32_t>((item * 2654435761u) % num_bits);
}

}  // namespace

std::vector<uint64_t> SegmentCatalog::UniformBoundaries(
    uint64_t num_txns, uint64_t segment_txns) {
  std::vector<uint64_t> boundaries = {0};
  if (segment_txns == 0) segment_txns = kDefaultSegmentTxns;
  for (uint64_t b = segment_txns; b < num_txns; b += segment_txns) {
    boundaries.push_back(b);
  }
  if (boundaries.back() != num_txns) boundaries.push_back(num_txns);
  return boundaries;
}

SegmentCatalog SegmentCatalog::Build(const TransactionDb& db,
                                     std::vector<uint64_t> boundaries,
                                     uint32_t tracked_items,
                                     uint32_t bitset_words,
                                     ThreadPool* pool) {
  SegmentCatalog catalog;
  catalog.bitset_words_ = std::max(1u, bitset_words);
  catalog.boundaries_ = std::move(boundaries);
  const size_t num_segments = catalog.boundaries_.size() - 1;

  const std::vector<uint32_t> freq = db.ItemFrequencies();
  catalog.tracked_ids_ = TopKByFrequency(freq, tracked_items);
  const size_t tracked = catalog.tracked_ids_.size();

  catalog.min_item_.assign(num_segments, kInvalidItem);
  catalog.max_item_.assign(num_segments, 0);
  catalog.bits_.assign(num_segments * catalog.bitset_words_, 0);
  catalog.tracked_supports_.assign(num_segments * tracked, 0);

  // Sparse tracked lookup: slot_of[item] = tracked slot + 1, 0 = not
  // tracked (shared read-only across segment shards).
  std::vector<uint32_t> slot_of(freq.size(), 0);
  for (size_t i = 0; i < tracked; ++i) {
    slot_of[catalog.tracked_ids_[i]] = static_cast<uint32_t>(i) + 1;
  }

  const auto build_segment = [&](size_t seg) {
    uint64_t* bits = catalog.bits_.data() + seg * catalog.bitset_words_;
    uint32_t* sups = catalog.tracked_supports_.data() + seg * tracked;
    ItemId lo = kInvalidItem;
    ItemId hi = 0;
    // Per-transaction distinctness makes the tracked counts true
    // supports (a txn contains each item at most once).
    for (uint64_t t = catalog.boundaries_[seg];
         t < catalog.boundaries_[seg + 1]; ++t) {
      for (ItemId item : db.Get(static_cast<TxnId>(t))) {
        lo = std::min(lo, item);
        hi = std::max(hi, item);
        const uint32_t bit = HashBit(item, catalog.bitset_words_ * 64);
        bits[bit / 64] |= uint64_t{1} << (bit % 64);
        if (item < slot_of.size() && slot_of[item] != 0) {
          ++sups[slot_of[item] - 1];
        }
      }
    }
    catalog.min_item_[seg] = lo;
    catalog.max_item_[seg] = hi;
  };

  // Segments write disjoint state, so sharding cannot reorder anything.
  // One shard per pool thread (ParallelFor caps it at the segments).
  const int num_shards = pool != nullptr ? pool->num_threads() : 1;
  ParallelFor(pool, 0, num_segments, num_shards,
              [&](int, size_t seg_lo, size_t seg_hi) {
                for (size_t seg = seg_lo; seg < seg_hi; ++seg) {
                  build_segment(seg);
                }
              });
  return catalog;
}

}  // namespace flipper
