// SegmentCatalog: per-segment item metadata of a segmented store. The
// transactions of a database are partitioned into contiguous segments
// (the .fdb shard segments, or synthesized fixed-size ranges for
// in-memory databases); for each segment the catalog records
//
//   - the min/max item id occurring in it,
//   - a small fixed-size bitset (a one-hash Bloom filter) with a bit
//     set for every item present, and
//   - exact support counts for a tracked set of globally
//     top-frequency items.
//
// MayContain() is one-sided: an unset bit, an id outside [min, max],
// or a tracked count of zero *proves* the item is absent from the
// segment; a set bit may be a hash collision.
//
// The catalog is persisted as the kSegCatalog section of a legacy v2
// FlipperStore file (the reader validates it against the payload; this
// build writes no v2 files), and
// LevelViews can rebuild it per abstraction level for the generalized
// databases (same transaction boundaries, level-h vocabulary) when
// asked to through LevelViews::BuildOptions.

#ifndef FLIPPER_DATA_SEGMENT_CATALOG_H_
#define FLIPPER_DATA_SEGMENT_CATALOG_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "data/types.h"

namespace flipper {

class TransactionDb;

class SegmentCatalog {
 public:
  /// Bitset words per segment (512 bits). The v2 file records its own
  /// word count, so this is a build default, not a format constant.
  static constexpr uint32_t kDefaultBitsetWords = 8;
  /// Tracked top-frequency items per catalog.
  static constexpr uint32_t kDefaultTrackedItems = 16;
  /// Segment size used when boundaries are synthesized for databases
  /// that did not come from a segmented store.
  static constexpr uint64_t kDefaultSegmentTxns = 4096;

  SegmentCatalog() = default;

  /// Builds a catalog of `db` over `boundaries` (num_segments + 1
  /// monotone transaction indexes from 0 to db.size()). Tracked items
  /// are the `tracked_items` most frequent ids (frequency descending,
  /// id ascending tiebreak). Segments are processed independently, so
  /// a pool shards the work without changing the result.
  static SegmentCatalog Build(const TransactionDb& db,
                              std::vector<uint64_t> boundaries,
                              uint32_t tracked_items = kDefaultTrackedItems,
                              uint32_t bitset_words = kDefaultBitsetWords,
                              ThreadPool* pool = nullptr);

  /// Evenly spaced boundaries (every `segment_txns` transactions) for
  /// a database of `num_txns` transactions; always spans [0, num_txns].
  static std::vector<uint64_t> UniformBoundaries(uint64_t num_txns,
                                                 uint64_t segment_txns);

  /// Assembles a catalog from decoded storage sections. The caller
  /// (StoreReader) validates bounds first; this only wires the parts.
  static SegmentCatalog FromParts(std::vector<uint64_t> boundaries,
                                  uint32_t bitset_words,
                                  std::vector<ItemId> tracked_ids,
                                  std::vector<ItemId> min_item,
                                  std::vector<ItemId> max_item,
                                  std::vector<uint64_t> bits,
                                  std::vector<uint32_t> tracked_supports);

  size_t num_segments() const { return min_item_.size(); }
  bool empty() const { return num_segments() == 0; }

  /// num_segments() + 1 transaction indexes, 0 .. num_txns.
  std::span<const uint64_t> boundaries() const { return boundaries_; }

  uint32_t bitset_words() const { return bitset_words_; }
  uint32_t bitset_bits() const { return bitset_words_ * 64; }
  std::span<const ItemId> tracked_ids() const { return tracked_ids_; }

  ItemId min_item(size_t seg) const { return min_item_[seg]; }
  ItemId max_item(size_t seg) const { return max_item_[seg]; }
  std::span<const uint64_t> segment_bits(size_t seg) const {
    return {bits_.data() + seg * bitset_words_, bitset_words_};
  }
  std::span<const uint32_t> segment_tracked_supports(size_t seg) const {
    return {tracked_supports_.data() + seg * tracked_ids_.size(),
            tracked_ids_.size()};
  }

  /// Bit index of `item` in a `num_bits`-wide segment bitset. This is
  /// the single definition of the catalog hash: Build (and so the
  /// reader's validation rebuild) and every MayContain probe go through
  /// it, so they can never diverge.
  static uint32_t HashBit(ItemId item, uint32_t num_bits) {
    // Fibonacci hash; any fixed mixing works as long as every party
    // agrees.
    return static_cast<uint32_t>((item * 2654435761u) % num_bits);
  }

  /// Bit index of `item` in this catalog's segment bitsets.
  uint32_t BitIndex(ItemId item) const {
    return HashBit(item, bitset_bits());
  }

  /// The `k` most frequent item ids of `freq` (frequency descending,
  /// id ascending tiebreak) — Build's tracked-set selection.
  static std::vector<ItemId> TopKByFrequency(
      std::span<const uint32_t> freq, uint32_t k);

  /// False only when `item` provably does not occur in segment `seg`
  /// (range or bitset exclusion, or a tracked count of zero).
  bool MayContain(size_t seg, ItemId item) const {
    if (item < min_item_[seg] || item > max_item_[seg]) return false;
    const uint32_t bit = BitIndex(item);
    if ((bits_[seg * bitset_words_ + bit / 64] &
         (uint64_t{1} << (bit % 64))) == 0) {
      return false;
    }
    const auto tracked = TrackedSupport(seg, item);
    return !tracked.has_value() || *tracked > 0;
  }

  /// Exact support of `item` within segment `seg` when tracked.
  std::optional<uint32_t> TrackedSupport(size_t seg, ItemId item) const {
    for (size_t i = 0; i < tracked_ids_.size(); ++i) {
      if (tracked_ids_[i] == item) {
        return tracked_supports_[seg * tracked_ids_.size() + i];
      }
    }
    return std::nullopt;
  }

  /// Mean fraction of set bits across segment bitsets (inspect stat).
  double MeanBitsetFill() const;

  int64_t MemoryBytes() const;

 private:
  uint32_t bitset_words_ = kDefaultBitsetWords;
  std::vector<uint64_t> boundaries_ = {0};
  std::vector<ItemId> tracked_ids_;
  std::vector<ItemId> min_item_;          // kInvalidItem for empty segs
  std::vector<ItemId> max_item_;          // 0 for empty segs
  std::vector<uint64_t> bits_;            // num_segments x bitset_words
  std::vector<uint32_t> tracked_supports_;  // num_segments x tracked
};

}  // namespace flipper

#endif  // FLIPPER_DATA_SEGMENT_CATALOG_H_
