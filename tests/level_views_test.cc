// LevelViews::Build against an independent brute-force reference: every
// level's generalized transactions, item supports, width histogram and
// database metadata, for every thread count. NaiveMiner (the fuzz
// harness's oracle) builds its views with the same Build, so the views
// need an oracle of their own.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/level_views.h"
#include "test_util.h"

namespace flipper {
namespace {

/// Thread counts the suite sweeps: serial, 2, 4, and whatever the
/// hardware reports (0 resolves to it).
const int kThreadCounts[] = {1, 2, 4, 0};

/// Enough transactions that a 4-thread build runs many shards.
constexpr uint32_t kShardedTxns = 20000;

/// Level h of `db` as the paper defines it: every item replaced by its
/// level-h ancestor (a shallow leaf by itself), duplicates collapsed.
std::vector<std::set<ItemId>> ReferenceLevel(const TransactionDb& db,
                                             const Taxonomy& taxonomy,
                                             int h) {
  std::vector<std::set<ItemId>> txns(db.size());
  for (TxnId t = 0; t < db.size(); ++t) {
    for (ItemId item : db.Get(t)) {
      const ItemId anc = taxonomy.AncestorAtLevel(item, h);
      EXPECT_NE(anc, kInvalidItem) << "item " << item << " level " << h;
      txns[t].insert(anc);
    }
  }
  return txns;
}

/// Checks every level of `views` against the brute-force reference and
/// against the serial TransactionDb::Generalize rewrite.
void ExpectMatchesReference(const LevelViews& views,
                            const TransactionDb& db,
                            const Taxonomy& taxonomy,
                            const std::string& label) {
  ASSERT_EQ(views.height(), taxonomy.height()) << label;
  ASSERT_EQ(views.num_transactions(), db.size()) << label;
  for (int h = 1; h <= taxonomy.height(); ++h) {
    SCOPED_TRACE(label + ", level " + std::to_string(h));
    const LevelData& level = views.Level(h);
    EXPECT_EQ(level.level, h);
    const std::vector<std::set<ItemId>> ref =
        ReferenceLevel(db, taxonomy, h);

    std::vector<uint32_t> support(taxonomy.id_space(), 0);
    std::vector<uint32_t> hist;
    ItemId alphabet = 0;
    uint32_t max_width = 0;
    uint64_t total = 0;
    ASSERT_EQ(level.db.size(), db.size());
    for (TxnId t = 0; t < db.size(); ++t) {
      const auto got = level.db.Get(t);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref[t].begin(),
                             ref[t].end()))
          << "txn " << t;
      for (ItemId item : ref[t]) {
        ++support[item];
        alphabet = std::max(alphabet, item + 1);
      }
      const auto width = static_cast<uint32_t>(ref[t].size());
      if (width >= hist.size()) hist.resize(width + 1, 0);
      ++hist[width];
      max_width = std::max(max_width, width);
      total += width;
    }
    hist.resize(std::max<size_t>(hist.size(), max_width + 1), 0);
    EXPECT_EQ(level.item_support, support);
    EXPECT_EQ(level.width_hist, hist);
    EXPECT_EQ(level.db.alphabet_size(), alphabet);
    EXPECT_EQ(level.db.max_width(), max_width);
    EXPECT_EQ(level.db.total_items(), total);
    for (ItemId item = 0; item < support.size(); ++item) {
      ASSERT_EQ(views.ItemSupport(h, item), support[item]) << item;
    }

    const TransactionDb serial = db.Generalize(taxonomy.LevelMap(h));
    EXPECT_EQ(serial.alphabet_size(), level.db.alphabet_size());
    EXPECT_EQ(serial.max_width(), level.db.max_width());
    EXPECT_EQ(serial.total_items(), level.db.total_items());
  }
}

/// Builds at every swept thread count (and without a pool) and checks
/// each result against the reference.
void ExpectBuildMatchesEverywhere(const TransactionDb& db,
                                  const Taxonomy& taxonomy) {
  auto unpooled = LevelViews::Build(db, taxonomy);
  ASSERT_TRUE(unpooled.ok()) << unpooled.status();
  ExpectMatchesReference(*unpooled, db, taxonomy, "no pool");
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto views = LevelViews::Build(db, taxonomy, &pool);
    ASSERT_TRUE(views.ok()) << views.status();
    ExpectMatchesReference(*views, db, taxonomy,
                           "threads " + std::to_string(pool.num_threads()));
  }
}

/// Node ids handed out in a shuffled order, so that ancestors do not
/// follow the leaf id order and generalized transactions need sorting.
class ShuffledIds {
 public:
  ShuffledIds(Rng* rng, size_t count) : ids_(count) {
    for (size_t i = 0; i < count; ++i) ids_[i] = static_cast<ItemId>(i);
    rng->Shuffle(&ids_);
  }
  ItemId Next() { return ids_.at(next_++); }

 private:
  std::vector<ItemId> ids_;
  size_t next_ = 0;
};

/// A random taxonomy whose leaves sit at every depth: below the root
/// level each node is a leaf with probability 1/3, except along one
/// spine that reaches `depth`. Node ids are shuffled (and sparse).
/// Transactions draw random leaves.
testutil::Dataset ShallowLeafDataset(uint64_t seed, uint32_t depth,
                                     uint32_t num_txns,
                                     uint32_t max_width) {
  testutil::Dataset out;
  Rng rng(seed);
  TaxonomyBuilder builder;
  ShuffledIds ids(&rng, 4096);
  std::vector<ItemId> frontier;
  for (int r = 0; r < 5; ++r) {
    frontier.push_back(ids.Next());
    builder.AddRoot(frontier.back());
  }
  for (uint32_t level = 2; level <= depth; ++level) {
    std::vector<ItemId> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      const bool spine = i == 0;
      if (!spine && rng.Below(3) == 0) continue;  // stays a leaf
      const uint32_t children = 1 + static_cast<uint32_t>(rng.Below(3));
      for (uint32_t c = 0; c < children; ++c) {
        next.push_back(ids.Next());
        EXPECT_TRUE(builder.AddEdge(frontier[i], next.back()).ok());
      }
    }
    frontier = std::move(next);
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  out.taxonomy = std::move(built).value();

  const std::vector<ItemId>& leaves = out.taxonomy.Leaves();
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < num_txns; ++t) {
    txn.clear();
    const auto width = static_cast<uint32_t>(rng.Below(max_width + 1));
    for (uint32_t i = 0; i < width; ++i) {
      txn.push_back(leaves[rng.Below(leaves.size())]);
    }
    out.db.Add(txn);
  }
  return out;
}

TEST(LevelViewsBuildTest, RandomDatasetsMatchReference) {
  for (uint64_t seed : {3u, 17u, 40u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const testutil::Dataset data = testutil::RandomDataset(
        seed, /*num_roots=*/6, /*fanout=*/3, /*depth=*/4, kShardedTxns,
        /*max_width=*/9);
    ExpectBuildMatchesEverywhere(data.db, data.taxonomy);
  }
}

TEST(LevelViewsBuildTest, ShallowLeavesRepresentThemselves) {
  for (uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const testutil::Dataset data =
        ShallowLeafDataset(seed, /*depth=*/5, kShardedTxns,
                           /*max_width=*/8);
    ASSERT_EQ(data.taxonomy.height(), 5);
    bool has_shallow_leaf = false;
    for (ItemId leaf : data.taxonomy.Leaves()) {
      has_shallow_leaf |= data.taxonomy.LevelOf(leaf) < 5;
    }
    ASSERT_TRUE(has_shallow_leaf);
    ExpectBuildMatchesEverywhere(data.db, data.taxonomy);
  }
}

TEST(LevelViewsBuildTest, PaperToyDataset) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  ExpectBuildMatchesEverywhere(data.db, data.taxonomy);
}

TEST(LevelViewsBuildTest, EmptyDatabase) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const TransactionDb empty;
  ExpectBuildMatchesEverywhere(empty, data.taxonomy);
  auto views = LevelViews::Build(empty, data.taxonomy);
  ASSERT_TRUE(views.ok());
  EXPECT_EQ(views->MaxUniversalWidth(), 0u);
  EXPECT_EQ(views->Level(1).width_hist, std::vector<uint32_t>{0});
}

TEST(LevelViewsBuildTest, EmptyTransactions) {
  // Runs of empty transactions inside and across shard boundaries.
  testutil::Dataset data = ShallowLeafDataset(
      9, /*depth=*/3, /*num_txns=*/0, /*max_width=*/0);
  const std::vector<ItemId>& leaves = data.taxonomy.Leaves();
  Rng rng(9);
  for (uint32_t t = 0; t < kShardedTxns; ++t) {
    if (t % 7 == 0 || (t >= 5000 && t < 9000)) {
      data.db.Add({});
    } else {
      data.db.Add({leaves[rng.Below(leaves.size())],
                   leaves[rng.Below(leaves.size())]});
    }
  }
  ExpectBuildMatchesEverywhere(data.db, data.taxonomy);

  TransactionDb all_empty;
  for (int t = 0; t < 3000; ++t) all_empty.Add({});
  ExpectBuildMatchesEverywhere(all_empty, data.taxonomy);
}

TEST(LevelViewsBuildTest, HeightOneTaxonomy) {
  TaxonomyBuilder builder;
  for (ItemId id = 0; id < 40; ++id) builder.AddRoot(id);
  auto taxonomy = builder.Build();
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
  ASSERT_EQ(taxonomy->height(), 1);
  Rng rng(1);
  TransactionDb db;
  for (uint32_t t = 0; t < kShardedTxns; ++t) {
    db.Add({static_cast<ItemId>(rng.Below(40)),
            static_cast<ItemId>(rng.Below(40)),
            static_cast<ItemId>(rng.Below(40))});
  }
  ExpectBuildMatchesEverywhere(db, *taxonomy);
}

TEST(LevelViewsBuildTest, TransactionsWiderThanSmallBuffers) {
  // 8 roots x 8 x 8 = 512 leaves with shuffled ids; transactions of up
  // to 400 leaves whose ancestors collapse heavily at the upper levels.
  Rng rng(77);
  ShuffledIds ids(&rng, 8 + 64 + 512);
  TaxonomyBuilder builder;
  std::vector<ItemId> frontier;
  for (int r = 0; r < 8; ++r) {
    frontier.push_back(ids.Next());
    builder.AddRoot(frontier.back());
  }
  for (int level = 2; level <= 3; ++level) {
    std::vector<ItemId> next;
    for (ItemId parent : frontier) {
      for (int c = 0; c < 8; ++c) {
        next.push_back(ids.Next());
        ASSERT_TRUE(builder.AddEdge(parent, next.back()).ok());
      }
    }
    frontier = std::move(next);
  }
  auto taxonomy = builder.Build();
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
  const std::vector<ItemId>& leaves = taxonomy->Leaves();
  TransactionDb db;
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < 6000; ++t) {
    txn.clear();
    const uint64_t width = t % 50 == 0 ? 400 : rng.Below(70);
    for (uint64_t i = 0; i < width; ++i) {
      txn.push_back(leaves[rng.Below(leaves.size())]);
    }
    db.Add(txn);
  }
  ASSERT_GT(db.max_width(), 200u);
  ExpectBuildMatchesEverywhere(db, *taxonomy);
}

/// A sharded database over the toy taxonomy's leaves with `bad` items
/// planted at the given transaction indexes.
TransactionDb ToyDbWithBadItems(
    const testutil::Dataset& data,
    const std::vector<std::pair<TxnId, std::vector<ItemId>>>& bad) {
  const std::vector<ItemId>& leaves = data.taxonomy.Leaves();
  Rng rng(8);
  TransactionDb db;
  for (TxnId t = 0; t < kShardedTxns; ++t) {
    std::vector<ItemId> txn = {leaves[rng.Below(leaves.size())],
                               leaves[rng.Below(leaves.size())]};
    for (const auto& [where, items] : bad) {
      if (where == t) txn.insert(txn.end(), items.begin(), items.end());
    }
    db.Add(txn);
  }
  return db;
}

void ExpectBuildError(const TransactionDb& db, const Taxonomy& taxonomy,
                      const std::string& message) {
  auto unpooled = LevelViews::Build(db, taxonomy);
  ASSERT_FALSE(unpooled.ok());
  EXPECT_EQ(unpooled.status().message(), message);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto views = LevelViews::Build(db, taxonomy, &pool);
    ASSERT_FALSE(views.ok()) << "threads " << pool.num_threads();
    EXPECT_EQ(views.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(views.status().message(), message)
        << "threads " << pool.num_threads();
  }
}

TEST(LevelViewsBuildTest, RejectsItemsThatAreNotNodes) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const auto unknown = static_cast<ItemId>(data.taxonomy.id_space() + 5);
  const ItemId internal = *data.dict.Find("a1");
  // The lowest bad transaction wins, whichever shard finds it first.
  const TransactionDb db = ToyDbWithBadItems(
      data, {{15000, {internal}}, {12345, {unknown}}, {19999, {unknown}}});
  ExpectBuildError(db, data.taxonomy,
                   "transaction 12345 contains item " +
                       std::to_string(unknown) +
                       " that is not a taxonomy node");
}

TEST(LevelViewsBuildTest, RejectsInternalNodes) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const ItemId internal = *data.dict.Find("b2");
  const auto unknown = static_cast<ItemId>(data.taxonomy.id_space() + 5);
  // Within one transaction the lowest failing item is named: the
  // internal node sorts before the out-of-taxonomy id.
  const TransactionDb db = ToyDbWithBadItems(
      data, {{7001, {unknown, internal}}, {18000, {unknown}}});
  ExpectBuildError(db, data.taxonomy,
                   "transaction 7001 contains item " +
                       std::to_string(internal) +
                       " that is an internal taxonomy node; transactions "
                       "must contain leaves only");

  // The first transaction, with the serial shard layout.
  TransactionDb first;
  first.Add({internal});
  ExpectBuildError(first, data.taxonomy,
                   "transaction 0 contains item " +
                       std::to_string(internal) +
                       " that is an internal taxonomy node; transactions "
                       "must contain leaves only");
}

TEST(LevelViewsBuildTest, DeepestLevelSharesLeafStorage) {
  const testutil::Dataset data = testutil::RandomDataset(
      21, /*num_roots=*/4, /*fanout=*/2, /*depth=*/3, kShardedTxns);
  const int height = data.taxonomy.height();
  // A borrowed leaf database, as a store reader provides it.
  std::vector<uint64_t> offsets;
  std::vector<ItemId> items;
  for (TxnId t = 0; t <= data.db.size(); ++t) {
    offsets.push_back(data.db.offset(t));
  }
  for (TxnId t = 0; t < data.db.size(); ++t) {
    const auto txn = data.db.Get(t);
    items.insert(items.end(), txn.begin(), txn.end());
  }
  const TransactionDb borrowed = TransactionDb::FromBorrowed(
      offsets, items, data.db.alphabet_size(), data.db.max_width());

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    for (const TransactionDb* leaf : {&borrowed, &data.db}) {
      auto views = LevelViews::Build(*leaf, data.taxonomy, &pool);
      ASSERT_TRUE(views.ok()) << views.status();
      const TransactionDb& deepest = views->Level(height).db;
      EXPECT_TRUE(deepest.borrowed());
      EXPECT_EQ(deepest.Get(0).data(), leaf->Get(0).data());
      EXPECT_EQ(deepest.Get(leaf->size() - 1).data(),
                leaf->Get(leaf->size() - 1).data());
      // The upper levels own their storage.
      for (int h = 1; h < height; ++h) {
        EXPECT_FALSE(views->Level(h).db.borrowed()) << h;
      }
    }
    auto views = LevelViews::Build(borrowed, data.taxonomy, &pool);
    ASSERT_TRUE(views.ok());
    ExpectMatchesReference(*views, borrowed, data.taxonomy,
                           "borrowed leaf db");
  }
}

}  // namespace
}  // namespace flipper
