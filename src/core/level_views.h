// LevelViews: per-abstraction-level generalized databases plus the
// derived structures the miners need (single-item supports, width
// histograms). Level h's view is the input database with every item
// replaced by its level-h generalization (paper Figure 4). Everything
// is materialized by Build; afterwards the views are immutable, so one
// instance can be shared read-only across concurrent queries.

#ifndef FLIPPER_CORE_LEVEL_VIEWS_H_
#define FLIPPER_CORE_LEVEL_VIEWS_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/segment_catalog.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

/// One abstraction level's materialized state.
struct LevelData {
  int level = 0;
  TransactionDb db;
  /// sup(item) indexed by ItemId over the shared id space.
  std::vector<uint32_t> item_support;
  /// width_hist[w] = number of transactions of generalized width w.
  std::vector<uint32_t> width_hist;
  /// Per-segment presence metadata of this level's generalized
  /// database; null unless BuildOptions::build_catalogs asked for it.
  /// No mining path reads it: it stays only for perfbench's driver,
  /// which times the catalog pass, and goes when that call does.
  std::shared_ptr<const SegmentCatalog> catalog;
};

class LevelViews {
 public:
  /// Kept only for perfbench's driver, which times the catalog pass;
  /// it goes once that call stops asking for catalogs.
  struct BuildOptions {
    /// Build a per-level SegmentCatalog (LevelData::catalog) over
    /// uniform `segment_txns`-sized transaction ranges. The miners do
    /// not read catalogs.
    bool build_catalogs = true;
    uint64_t segment_txns = SegmentCatalog::kDefaultSegmentTxns;
  };

  /// Creates an empty view (no levels); assign from Build().
  LevelViews() = default;

  /// Materializes levels 1..taxonomy.height() in one sharded pass over
  /// `leaf_db`. Fails if a transaction contains an item that is not a
  /// taxonomy leaf, naming the lowest such transaction. A non-null
  /// `pool` parallelizes the pass; it is used only for the duration of
  /// the call — the views keep no reference to it, so they can outlive
  /// the build pool and be shared (read-only) across concurrent
  /// queries. The result does not depend on the pool's size.
  ///
  /// The deepest level's view is `leaf_db` itself (every leaf is its
  /// own level-height generalization): Level(height()).db borrows
  /// `leaf_db`'s storage instead of copying it. That storage must
  /// outlive the views and stay unmodified — the rule FromBorrowed
  /// already sets for store-backed databases.
  static Result<LevelViews> Build(const TransactionDb& leaf_db,
                                  const Taxonomy& taxonomy,
                                  ThreadPool* pool,
                                  const BuildOptions& options);
  /// The views every miner builds: no per-level catalogs, since no
  /// mining path reads them.
  static Result<LevelViews> Build(const TransactionDb& leaf_db,
                                  const Taxonomy& taxonomy,
                                  ThreadPool* pool = nullptr) {
    BuildOptions options;
    options.build_catalogs = false;
    return Build(leaf_db, taxonomy, pool, options);
  }

  int height() const { return static_cast<int>(levels_.size()); }
  uint32_t num_transactions() const { return num_txns_; }

  const LevelData& Level(int h) const { return levels_[h - 1]; }

  /// Support of a single node at its level's view.
  uint32_t ItemSupport(int h, ItemId item) const {
    const auto& sup = levels_[h - 1].item_support;
    return item < sup.size() ? sup[item] : 0;
  }

  /// min over levels of the maximum generalized transaction width:
  /// no (h,k)-itemset with k beyond this bound can be frequent at
  /// every level, so it caps the number of search-space columns.
  uint32_t MaxUniversalWidth() const;

 private:
  uint32_t num_txns_ = 0;
  std::vector<LevelData> levels_;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_LEVEL_VIEWS_H_
