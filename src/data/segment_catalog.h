// SegmentCatalog: per-segment item metadata of a database whose
// transactions are partitioned into contiguous segments. For each
// segment it records
//
//   - the min/max item id occurring in it,
//   - a small fixed-size bitset (a one-hash Bloom filter) with a bit
//     set for every item present, and
//   - exact support counts for a tracked set of globally
//     top-frequency items.
//
// No mining path and no store reads a catalog. What is left exists
// only because perfbench's driver times LevelViews::Build with
// BuildOptions::build_catalogs (LevelData::catalog), and perfbench
// changes only with the benchmark itself; once its driver stops
// asking for catalogs, this file goes too.

#ifndef FLIPPER_DATA_SEGMENT_CATALOG_H_
#define FLIPPER_DATA_SEGMENT_CATALOG_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "data/types.h"

namespace flipper {

class TransactionDb;

class SegmentCatalog {
 public:
  /// Bitset words per segment (512 bits).
  static constexpr uint32_t kDefaultBitsetWords = 8;
  /// Tracked top-frequency items per catalog.
  static constexpr uint32_t kDefaultTrackedItems = 16;
  /// Segment size of UniformBoundaries when none is given.
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
