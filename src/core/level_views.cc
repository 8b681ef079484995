#include "core/level_views.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/trace.h"

namespace flipper {

namespace {

/// Transactions per build shard below which the per-shard state and
/// the compaction cost more than the parallelism buys.
constexpr size_t kMinTxnsPerBuildShard = 1024;
/// Build shards per pool thread. Workers take shards from the pool's
/// queue, so a worker that wakes late delays the join by one short
/// shard rather than by a whole thread's share of the database.
constexpr size_t kShardsPerThread = 4;

/// What a leaf-database item is to the taxonomy.
enum ItemKind : uint8_t { kLeafItem, kNotANode, kInternalNode };

/// One level's counts over one build shard.
struct ShardLevel {
  std::vector<uint32_t> support;
  std::vector<uint32_t> width_hist;
  /// End of the shard's generalized items in the level's item array
  /// (levels above the leaves only).
  uint64_t end = 0;
};

/// One contiguous transaction range's share of every level.
struct BuildShard {
  size_t lo = 0;
  size_t hi = 0;
  /// Where the shard's generalized items start in every upper level's
  /// item array before compaction: its leaf items' start, which no
  /// earlier shard's output can reach.
  uint64_t start = 0;
  std::vector<ShardLevel> levels;  // levels[h - 1]
  /// The shard's first invalid item; the shard stops there.
  bool failed = false;
  TxnId bad_txn = 0;
  ItemId bad_item = 0;
  ItemKind bad_kind = kLeafItem;
};

Status InvalidItemError(TxnId t, ItemId item, ItemKind kind) {
  const std::string where = "transaction " + std::to_string(t) +
                            " contains item " + std::to_string(item);
  if (kind == kNotANode) {
    return Status::InvalidArgument(where +
                                   " that is not a taxonomy node");
  }
  return Status::InvalidArgument(
      where +
      " that is an internal taxonomy node; transactions must "
      "contain leaves only");
}

/// Sorts [first, first + n) and drops duplicates; returns the new
/// size. Baskets are short, so insertion sort handles most of them
/// (in linear time when the ancestor map keeps the leaf order).
size_t SortUnique(ItemId* first, size_t n) {
  if (n <= 32) {
    for (size_t i = 1; i < n; ++i) {
      const ItemId v = first[i];
      size_t j = i;
      for (; j > 0 && first[j - 1] > v; --j) first[j] = first[j - 1];
      first[j] = v;
    }
  } else {
    std::sort(first, first + n);
  }
  return static_cast<size_t>(std::unique(first, first + n) - first);
}

void CountWidth(std::vector<uint32_t>* hist, size_t width) {
  if (width >= hist->size()) hist->resize(width + 1, 0);
  ++(*hist)[width];
}

void AddInto(std::vector<uint32_t>* total,
             const std::vector<uint32_t>& part) {
  if (part.size() > total->size()) total->resize(part.size(), 0);
  for (size_t i = 0; i < part.size(); ++i) (*total)[i] += part[i];
}

}  // namespace

Result<LevelViews> LevelViews::Build(const TransactionDb& leaf_db,
                                     const Taxonomy& taxonomy,
                                     ThreadPool* pool,
                                     const BuildOptions& options) {
  const int height = taxonomy.height();
  const size_t id_space = taxonomy.id_space();
  const uint32_t n = leaf_db.size();
  // Levels 1..height-1 are generalized here; `upper` is their count.
  const size_t upper = height > 0 ? static_cast<size_t>(height - 1) : 0;

  // Item tables, built once: kind[id], and anc[id * upper + h - 1] =
  // AncestorAtLevel(id, h) for every leaf id and level h < height.
  std::vector<ItemKind> kind(id_space, kNotANode);
  std::vector<ItemId> anc(id_space * upper, kInvalidItem);
  for (size_t id = 0; id < id_space; ++id) {
    const auto item = static_cast<ItemId>(id);
    if (!taxonomy.IsNode(item)) continue;
    kind[id] = taxonomy.IsLeaf(item) ? kLeafItem : kInternalNode;
    if (kind[id] != kLeafItem) continue;
    for (int h = 1; h < height; ++h) {
      anc[id * upper + static_cast<size_t>(h - 1)] =
          taxonomy.AncestorAtLevel(item, h);
    }
  }

  const size_t threads =
      pool != nullptr ? static_cast<size_t>(pool->num_threads()) : 1;
  size_t num_shards = threads > 1 ? threads * kShardsPerThread : 1;
  num_shards = std::min(num_shards,
                        std::max<size_t>(1, n / kMinTxnsPerBuildShard));
  // Each shard clears and merges height * id_space counters; keep that
  // below the shard's share of the item scan.
  num_shards = std::min(
      num_shards,
      std::max<size_t>(1, leaf_db.total_items() /
                              std::max<size_t>(1, id_space)));
  std::vector<BuildShard> parts(num_shards);
  for (BuildShard& part : parts) {
    part.levels.resize(static_cast<size_t>(height));
  }

  // Every upper level's CSR arrays, sized for the case where no
  // duplicates collapse and left unwritten until the shards fill them.
  std::vector<TransactionDb::Items> items(upper);
  std::vector<TransactionDb::Offsets> offsets(upper);
  for (size_t l = 0; l < upper; ++l) {
    items[l].resize(leaf_db.total_items());
    offsets[l].resize(static_cast<size_t>(n) + 1);
    offsets[l][0] = 0;
  }

  // One pass over the leaf database: validate every item, count the
  // leaf level, and generalize and count every upper level. A shard
  // writes each upper level at its leaf items' position; a generalized
  // transaction is never wider than its leaf one, so shards never
  // overlap.
  {
    FLIPPER_TRACE_SPAN("views_generalize", "detail");
    ParallelFor(pool, 0, n, static_cast<int>(num_shards),
                [&](int shard, size_t lo, size_t hi) {
      BuildShard& part = parts[static_cast<size_t>(shard)];
      part.lo = lo;
      part.hi = hi;
      part.start = leaf_db.offset(static_cast<TxnId>(lo));
      for (ShardLevel& level : part.levels) {
        level.support.assign(id_space, 0);
      }
      ShardLevel* leaf = height > 0 ? &part.levels.back() : nullptr;
      std::vector<uint64_t> pos(upper, part.start);
      for (size_t t = lo; t < hi; ++t) {
        const std::span<const ItemId> txn =
            leaf_db.Get(static_cast<TxnId>(t));
        for (ItemId item : txn) {
          const ItemKind k = item < id_space ? kind[item] : kNotANode;
          if (k != kLeafItem) {
            part.failed = true;
            part.bad_txn = static_cast<TxnId>(t);
            part.bad_item = item;
            part.bad_kind = k;
            return;
          }
        }
        if (leaf == nullptr) continue;  // no levels: only empty txns
        for (ItemId item : txn) ++leaf->support[item];
        CountWidth(&leaf->width_hist, txn.size());
        for (size_t l = 0; l < upper; ++l) {
          ShardLevel& level = part.levels[l];
          ItemId* out = items[l].data() + pos[l];
          for (size_t i = 0; i < txn.size(); ++i) {
            out[i] = anc[static_cast<size_t>(txn[i]) * upper + l];
          }
          const size_t width = SortUnique(out, txn.size());
          pos[l] += width;
          offsets[l][t + 1] = pos[l];
          for (size_t i = 0; i < width; ++i) ++level.support[out[i]];
          CountWidth(&level.width_hist, width);
        }
      }
      for (size_t l = 0; l < upper; ++l) part.levels[l].end = pos[l];
    });
  }
  // Shards cover ascending transaction ranges and each stops at its
  // first invalid item, so the lowest failed shard holds the first one.
  for (const BuildShard& part : parts) {
    if (part.failed) {
      return InvalidItemError(part.bad_txn, part.bad_item, part.bad_kind);
    }
  }

  // Close the gaps between shards, in shard order, so each level's
  // arrays are the serial rewrite's whatever the thread count. Levels
  // are independent.
  {
    FLIPPER_TRACE_SPAN("views_compact", "detail");
    ParallelFor(pool, 0, upper, static_cast<int>(upper),
                [&](int /*shard*/, size_t first, size_t last) {
      for (size_t l = first; l < last; ++l) {
        uint64_t total = 0;
        for (const BuildShard& part : parts) {
          const uint64_t shift = part.start - total;
          const uint64_t len = part.levels[l].end - part.start;
          if (shift != 0) {
            std::copy(items[l].begin() + static_cast<ptrdiff_t>(part.start),
                      items[l].begin() +
                          static_cast<ptrdiff_t>(part.start + len),
                      items[l].begin() + static_cast<ptrdiff_t>(total));
            for (size_t t = part.lo; t < part.hi; ++t) {
              offsets[l][t + 1] -= shift;
            }
          }
          total += len;
        }
        items[l].resize(total);
      }
    });
  }

  LevelViews views;
  views.num_txns_ = n;
  views.levels_.resize(static_cast<size_t>(height));
  for (int h = 1; h <= height; ++h) {
    const auto l = static_cast<size_t>(h - 1);
    LevelData& data = views.levels_[l];
    data.level = h;
    data.item_support.assign(id_space, 0);
    std::vector<uint32_t> hist;
    for (const BuildShard& part : parts) {
      AddInto(&data.item_support, part.levels[l].support);
      AddInto(&hist, part.levels[l].width_hist);
    }
    if (h == height) {
      // LevelMap(height) maps every leaf to itself: the deepest view is
      // the leaf database, borrowed rather than copied.
      data.db = leaf_db.Borrow();
    } else {
      auto alphabet = static_cast<ItemId>(data.item_support.size());
      while (alphabet > 0 && data.item_support[alphabet - 1] == 0) {
        --alphabet;
      }
      const uint32_t max_width =
          hist.empty() ? 0 : static_cast<uint32_t>(hist.size() - 1);
      data.db = TransactionDb::FromOwned(std::move(offsets[l]),
                                         std::move(items[l]), alphabet,
                                         max_width);
    }
    hist.resize(std::max<size_t>(hist.size(), data.db.max_width() + 1), 0);
    data.width_hist = std::move(hist);
  }

  // Catalog boundaries: the leaf database's own segmentation (the
  // store's shard layout) when it carries one, uniform ranges
  // otherwise. Generalization preserves transaction indexes, so the
  // same boundaries describe every level.
  if (options.build_catalogs && n > 0) {
    std::vector<uint64_t> boundaries;
    if (leaf_db.segment_catalog() != nullptr) {
      const auto leaf_boundaries = leaf_db.segment_catalog()->boundaries();
      boundaries.assign(leaf_boundaries.begin(), leaf_boundaries.end());
    } else {
      boundaries =
          SegmentCatalog::UniformBoundaries(n, options.segment_txns);
    }
    for (LevelData& data : views.levels_) {
      // The deepest view is the leaf database itself, so a
      // store-provided catalog is reused as-is there.
      if (data.level == height && leaf_db.segment_catalog() != nullptr) {
        data.catalog = leaf_db.segment_catalog();
      } else {
        data.catalog = std::make_shared<SegmentCatalog>(
            SegmentCatalog::Build(data.db, boundaries,
                                  SegmentCatalog::kDefaultTrackedItems,
                                  SegmentCatalog::kDefaultBitsetWords,
                                  pool));
      }
    }
  }
  return views;
}

uint32_t LevelViews::MaxUniversalWidth() const {
  uint32_t bound = std::numeric_limits<uint32_t>::max();
  for (const LevelData& data : levels_) {
    bound = std::min(bound, data.db.max_width());
  }
  return levels_.empty() ? 0 : bound;
}

}  // namespace flipper
