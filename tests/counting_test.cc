// Support counting: CandidateTrie against brute force, the counter
// layout rule, and SupportCounter against the reference scan at every
// level and in both counter layouts (dense and trie), with and without
// a pool, plus its occurring-combination batches (the scan-driven
// cell) against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/candidate_trie.h"
#include "core/level_views.h"
#include "core/scan_counter.h"
#include "core/support_counting.h"
#include "test_util.h"

namespace flipper {
namespace {

class TrieProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrieProperty, CountsMatchBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    // Random database.
    TransactionDb db;
    std::vector<ItemId> txn;
    const ItemId alphabet = 20;
    for (int t = 0; t < 200; ++t) {
      txn.clear();
      const int width = 1 + static_cast<int>(rng.Below(9));
      for (int i = 0; i < width; ++i) {
        txn.push_back(static_cast<ItemId>(rng.Below(alphabet)));
      }
      db.Add(txn);
    }
    // Random distinct candidates of one size k.
    const int k = 2 + static_cast<int>(rng.Below(3));
    std::vector<Itemset> candidates;
    std::unordered_set<Itemset, ItemsetHash> seen;
    for (int c = 0; c < 60; ++c) {
      Itemset s;
      while (s.size() < k) {
        s.Insert(static_cast<ItemId>(rng.Below(alphabet)));
      }
      if (seen.insert(s).second) candidates.push_back(s);
    }

    CandidateTrie trie(candidates);
    EXPECT_EQ(trie.k(), k);
    EXPECT_EQ(trie.num_candidates(), candidates.size());
    for (TxnId t = 0; t < db.size(); ++t) {
      trie.CountTransaction(db.Get(t));
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(trie.CountOf(i), db.CountSupport(candidates[i]))
          << candidates[i].ToString();
    }
    EXPECT_GT(trie.MemoryBytes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProperty,
                         ::testing::Values(101, 202, 303));

TEST(Trie, EmptyCandidates) {
  CandidateTrie trie(std::span<const Itemset>{});
  EXPECT_EQ(trie.num_candidates(), 0u);
  const ItemId txn[] = {1, 2, 3};
  trie.CountTransaction(txn);  // must not crash
}

TEST(Trie, SingletonCandidates) {
  std::vector<Itemset> candidates = {Itemset{3}, Itemset{1}};
  CandidateTrie trie(candidates);
  const ItemId txn[] = {1, 2, 3};
  trie.CountTransaction(txn);
  EXPECT_EQ(trie.CountOf(0), 1u);
  EXPECT_EQ(trie.CountOf(1), 1u);
}

/// Distinct random k-itemsets over level h's nodes.
std::vector<Itemset> RandomCandidates(const Taxonomy& taxonomy, int h,
                                      int k, Rng* rng) {
  const auto& nodes = taxonomy.NodesAtLevel(h);
  std::vector<Itemset> candidates;
  std::unordered_set<Itemset, ItemsetHash> seen;
  const int arity = std::min(k, static_cast<int>(nodes.size()));
  for (int c = 0; c < 40; ++c) {
    Itemset s;
    while (s.size() < arity) {
      s.Insert(nodes[rng->Below(nodes.size())]);
    }
    if (seen.insert(s).second) candidates.push_back(s);
  }
  return candidates;
}

class CounterAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CounterAgreement, MatchesReferenceScanAtEveryLevel) {
  // Large enough that a 4-thread pool really shards the scan.
  testutil::Dataset data = testutil::RandomDataset(
      GetParam(), /*num_roots=*/4, /*fanout=*/2, /*depth=*/3,
      /*num_txns=*/2500);
  auto views_or = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views_or.ok()) << views_or.status();
  const LevelViews views = std::move(views_or).value();

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "no pool" : "4-thread pool");
    Rng rng(GetParam() ^ 0x1234);
    SupportCounter counter(p);
    uint64_t batches = 0;
    for (int h = 1; h <= views.height(); ++h) {
      for (int k = 2; k <= 3; ++k) {
        const std::vector<Itemset> candidates =
            RandomCandidates(data.taxonomy, h, k, &rng);
        std::vector<uint32_t> supports;
        ASSERT_TRUE(counter.Count(&views, h, candidates, &supports).ok());
        ASSERT_EQ(supports.size(), candidates.size());
        for (size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(supports[i],
                    views.Level(h).db.CountSupport(candidates[i]))
              << "level " << h << ", " << candidates[i].ToString();
        }
        batches += candidates.empty() ? 0 : 1;
      }
    }
    EXPECT_EQ(counter.num_db_scans(), batches);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterAgreement,
                         ::testing::Values(7, 8, 9));

TEST(CounterAgreement, MixedArityBatchIsRejected) {
  testutil::Dataset data = testutil::PaperToyDataset();
  auto views = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views.ok()) << views.status();
  const ItemId a = *data.dict.Find("a");
  const ItemId b = *data.dict.Find("b");
  const std::vector<Itemset> mixed = {Itemset{a}, Itemset::Pair(a, b)};
  SupportCounter counter;
  std::vector<uint32_t> supports;
  EXPECT_EQ(counter.Count(&*views, 1, mixed, &supports).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(counter.num_db_scans(), 0u);
}

// --- counter layouts ---------------------------------------------------

TEST(CountLayoutRule, SaturatingBinomial) {
  EXPECT_EQ(SaturatingBinomial(0, 0), 1u);
  EXPECT_EQ(SaturatingBinomial(5, 2), 10u);
  EXPECT_EQ(SaturatingBinomial(3, 5), 0u);
  EXPECT_EQ(SaturatingBinomial(251, 2), 31375u);
  EXPECT_EQ(SaturatingBinomial(40, 37), SaturatingBinomial(40, 3));
  // C(67, 33) is the largest central binomial that fits 64 bits.
  EXPECT_EQ(SaturatingBinomial(67, 33), 14226520737620288370ull);
  EXPECT_EQ(SaturatingBinomial(68, 34),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(SaturatingBinomial(100000, 8),
            std::numeric_limits<uint64_t>::max());
}

TEST(CountLayoutRule, BoundsAndSaturation) {
  // k = 2: dense up to C(n, 2) = 2^16, whatever the candidate count.
  EXPECT_EQ(ChooseCountLayout(362, 2, 1), CountLayout::kDense);
  EXPECT_EQ(ChooseCountLayout(363, 2, 1u << 20), CountLayout::kTrie);
  // k >= 3 also needs C(n, k) <= 64 * |candidates|.
  EXPECT_EQ(ChooseCountLayout(10, 3, 2), CountLayout::kDense);  // 120
  EXPECT_EQ(ChooseCountLayout(10, 3, 1), CountLayout::kTrie);
  EXPECT_EQ(ChooseCountLayout(74, 3, 1u << 20), CountLayout::kDense);
  EXPECT_EQ(ChooseCountLayout(75, 3, 1u << 20), CountLayout::kTrie);
  // A saturated C(n, k) picks the trie.
  EXPECT_EQ(ChooseCountLayout(100000, 8, 1u << 30), CountLayout::kTrie);
  EXPECT_EQ(ChooseCountLayout(100000, 2, 1u << 30), CountLayout::kTrie);
  // Singletons always walk the trie.
  EXPECT_EQ(ChooseCountLayout(5, 1, 100), CountLayout::kTrie);
  // The batch shapes of the benchmarked Quest and medline runs, which
  // must all count densely: the widest pair batches (quest thr10
  // Q(3,2), Q(4,2); thr2 Q(4,2)) and medline's sparsest k = 3 ones.
  EXPECT_EQ(ChooseCountLayout(250, 2, 16975), CountLayout::kDense);
  EXPECT_EQ(ChooseCountLayout(251, 2, 713), CountLayout::kDense);
  EXPECT_EQ(ChooseCountLayout(143, 2, 167), CountLayout::kDense);
  EXPECT_EQ(ChooseCountLayout(9, 3, 11), CountLayout::kDense);
  EXPECT_EQ(ChooseCountLayout(12, 3, 14), CountLayout::kDense);
}

/// The batch's number of distinct items.
uint64_t DistinctItems(const std::vector<Itemset>& candidates) {
  std::unordered_set<ItemId> items;
  for (const Itemset& c : candidates) items.insert(c.begin(), c.end());
  return items.size();
}

CountLayout LayoutOf(const std::vector<Itemset>& candidates) {
  return ChooseCountLayout(DistinctItems(candidates),
                           candidates.front().size(), candidates.size());
}

/// Up to `count` distinct k-itemsets over `pool`: half are k-subsets of
/// random transactions of `db` restricted to `pool` (so supports are
/// rarely zero), the rest uniform draws from `pool`.
std::vector<Itemset> DrawBatch(const TransactionDb& db,
                               const std::vector<ItemId>& pool, int k,
                               int count, Rng* rng) {
  const std::unordered_set<ItemId> in_pool(pool.begin(), pool.end());
  std::vector<Itemset> candidates;
  std::unordered_set<Itemset, ItemsetHash> seen;
  std::vector<ItemId> usable;
  for (int c = 0; c < count; ++c) {
    Itemset s;
    if (c % 2 == 0) {
      usable.clear();
      for (ItemId item : db.Get(static_cast<TxnId>(rng->Below(db.size())))) {
        if (in_pool.count(item) > 0) usable.push_back(item);
      }
      if (usable.size() >= static_cast<size_t>(k)) {
        while (s.size() < k) s.Insert(usable[rng->Below(usable.size())]);
      }
    }
    while (s.size() < k) s.Insert(pool[rng->Below(pool.size())]);
    if (seen.insert(s).second) candidates.push_back(s);
  }
  return candidates;
}

/// A sparse batch: `count` candidates of k distinct items each, no item
/// shared, drawn from `pool` (which must hold count * k items).
std::vector<Itemset> SparseBatch(std::vector<ItemId> pool, int k,
                                 int count, Rng* rng) {
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng->Below(i)]);
  }
  std::vector<Itemset> candidates(static_cast<size_t>(count));
  for (int c = 0; c < count; ++c) {
    for (int d = 0; d < k; ++d) {
      candidates[static_cast<size_t>(c)].Insert(
          pool[static_cast<size_t>(c * k + d)]);
    }
  }
  return candidates;
}

/// An occurring-combination batch's output: itemsets and supports.
using OccurringResult =
    std::pair<std::vector<Itemset>, std::vector<uint32_t>>;

/// Brute force for an occurring-combination batch: every k-combination
/// of `items` (ascending) with nonzero support in `db`, ascending,
/// with its support.
OccurringResult OccurringReference(
    const TransactionDb& db, const std::vector<ItemId>& items, int k) {
  std::vector<Itemset> itemsets;
  std::vector<uint32_t> supports;
  Itemset scratch;
  ForEachCombination(items, k, &scratch, [&](const Itemset& combo) {
    const uint32_t support = db.CountSupport(combo);
    if (support == 0) return;
    itemsets.push_back(combo);
    supports.push_back(support);
  });
  return {itemsets, supports};
}

/// Counts an occurring-combination batch and checks it against
/// `want` (OccurringReference).
void ExpectOccurring(SupportCounter* counter, const LevelViews& views,
                     int h, int k, const std::vector<ItemId>& items,
                     const OccurringResult& want) {
  ASSERT_FALSE(want.first.empty());
  OccurringResult got;
  ASSERT_TRUE(counter
                  ->StartCountOccurring(&views, h, k, items, SIZE_MAX,
                                        &got.first, &got.second)
                  .Join()
                  .ok());
  EXPECT_EQ(got.first, want.first) << "level " << h << ", k=" << k;
  EXPECT_EQ(got.second, want.second) << "level " << h << ", k=" << k;
}

/// Up to 14 of level h's nodes, skipping every third one, so
/// transactions also hold items outside the batch.
std::vector<ItemId> OccurringItems(const Taxonomy& taxonomy, int h) {
  std::vector<ItemId> items;
  const std::vector<ItemId>& nodes = taxonomy.NodesAtLevel(h);
  for (size_t i = 0; i < nodes.size() && items.size() < 14; ++i) {
    if (i % 3 != 1) items.push_back(nodes[i]);
  }
  return items;
}

TEST(OccurringCombinations, MatchBruteForceOnRandomDatabases) {
  ThreadPool pool(4);
  for (uint64_t seed : {3, 4, 5}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // 2500 transactions, so a 4-thread pool really shards the scan.
    const testutil::Dataset data = testutil::RandomDataset(
        seed, /*num_roots=*/4, /*fanout=*/3, /*depth=*/3,
        /*num_txns=*/2500, /*max_width=*/10);
    auto views = LevelViews::Build(data.db, data.taxonomy);
    ASSERT_TRUE(views.ok()) << views.status();
    SupportCounter serial;
    SupportCounter sharded(&pool);
    for (int h = 2; h <= 3; ++h) {
      const std::vector<ItemId> items = OccurringItems(data.taxonomy, h);
      for (int k = 2; k <= 4; ++k) {
        const OccurringResult want =
            OccurringReference(views->Level(h).db, items, k);
        ExpectOccurring(&serial, *views, h, k, items, want);
        ExpectOccurring(&sharded, *views, h, k, items, want);
      }
    }
    for (const SupportCounter* counter : {&serial, &sharded}) {
      EXPECT_EQ(counter->num_db_scans(), 6u);
      EXPECT_EQ(counter->num_occurring_scans(), 6u);
      EXPECT_EQ(counter->num_dense_scans(), 0u);
    }
  }
}

TEST(OccurringCombinations, CapExhaustionIsThreadCountInvariant) {
  const testutil::Dataset data = testutil::RandomDataset(
      6, /*num_roots=*/4, /*fanout=*/3, /*depth=*/3, /*num_txns=*/2500,
      /*max_width=*/10);
  auto views = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views.ok()) << views.status();
  const std::vector<ItemId> items = OccurringItems(data.taxonomy, 3);
  const size_t occurring =
      OccurringReference(views->Level(3).db, items, 3).first.size();
  ASSERT_GT(occurring, 8u);
  // A cap below what one shard sees, and one that only the merged
  // table passes when the scan is sharded.
  for (size_t cap : {size_t{8}, occurring - 1}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    for (int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      SupportCounter counter(&pool);
      std::vector<Itemset> itemsets;
      std::vector<uint32_t> supports;
      const Status status =
          counter.StartCountOccurring(&*views, 3, 3, items, cap, &itemsets,
                                      &supports)
              .Join();
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
          << "threads=" << threads;
      EXPECT_EQ(status.message(),
                "scan-driven cell Q(3,3) exceeded the candidate limit")
          << "threads=" << threads;
      EXPECT_EQ(counter.num_occurring_scans(), 1u);
    }
  }
}

TEST(OccurringCombinations, FiredTokenReturnsItsStatus) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  auto views = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views.ok()) << views.status();
  const std::vector<ItemId>& items = data.taxonomy.NodesAtLevel(3);

  CancelToken cancelled;
  cancelled.Cancel();
  CancelToken lapsed;
  lapsed.SetDeadlineAfterMs(-1);
  ThreadPool pool(4);
  for (const CancelToken* token : {&cancelled, &lapsed}) {
    SupportCounter counter(&pool, token);
    std::vector<Itemset> itemsets;
    std::vector<uint32_t> supports;
    EXPECT_EQ(counter
                  .StartCountOccurring(&*views, 3, 2, items, SIZE_MAX,
                                       &itemsets, &supports)
                  .Join()
                  .code(),
              token->ToStatus().code());
    EXPECT_FALSE(token->ToStatus().ok());
    EXPECT_TRUE(itemsets.empty());
    EXPECT_EQ(counter.num_db_scans(), 0u);
    EXPECT_EQ(counter.num_occurring_scans(), 0u);
  }

  // A token that fires after the start: the join returns its status
  // instead of merging, whether or not the shards finished.
  CancelToken late;
  SupportCounter counter(&pool, &late);
  std::vector<Itemset> itemsets;
  std::vector<uint32_t> supports;
  CountFuture future = counter.StartCountOccurring(
      &*views, 3, 2, items, SIZE_MAX, &itemsets, &supports);
  late.Cancel();
  EXPECT_EQ(future.Join().code(), StatusCode::kCancelled);
  EXPECT_TRUE(itemsets.empty());
  EXPECT_EQ(counter.num_occurring_scans(), 1u);
}

/// Over 400 leaves, so a pair batch over all of them exceeds the dense
/// bound, and ~64 mid-level nodes; up to 12 items per transaction, so
/// k = 4 finds matches.
class CountLayouts : public ::testing::Test {
 protected:
  struct Batch {
    int h = 0;
    std::vector<Itemset> candidates;
  };

  void SetUp() override {
    data_ = testutil::RandomDataset(31, /*num_roots=*/8, /*fanout=*/8,
                                    /*depth=*/3, /*num_txns=*/2500,
                                    /*max_width=*/12);
    auto views = LevelViews::Build(data_.db, data_.taxonomy, &pool_);
    ASSERT_TRUE(views.ok()) << views.status();
    views_ = std::move(views).value();
    ASSERT_EQ(views_.height(), 3);
    ASSERT_GT(data_.taxonomy.NodesAtLevel(3).size(), 400u);
    ASSERT_GE(data_.taxonomy.NodesAtLevel(2).size(), 32u);
  }

  /// Level 2's 24 lowest ids: its transactions hold items above the
  /// highest ranked id and items outside the batch.
  Batch DenseBatch(int k, Rng* rng) const {
    std::vector<ItemId> low = data_.taxonomy.NodesAtLevel(2);
    std::sort(low.begin(), low.end());
    low.resize(24);
    Batch batch{2, DrawBatch(views_.Level(2).db, low, k, 600, rng)};
    EXPECT_EQ(LayoutOf(batch.candidates), CountLayout::kDense);
    return batch;
  }

  /// k = 2: pairs over every leaf, past the C(n, 2) bound; k >= 3: too
  /// few candidates for their distinct items.
  Batch TrieBatch(int k, Rng* rng) const {
    Batch batch =
        k == 2 ? Batch{3, DrawBatch(views_.Level(3).db,
                                    data_.taxonomy.NodesAtLevel(3), k,
                                    2000, rng)}
               : Batch{2, SparseBatch(data_.taxonomy.NodesAtLevel(2), k,
                                      8, rng)};
    EXPECT_EQ(LayoutOf(batch.candidates), CountLayout::kTrie);
    return batch;
  }

  void ExpectExactSupports(SupportCounter* counter, const Batch& batch) {
    std::vector<uint32_t> supports;
    ASSERT_TRUE(
        counter->Count(&views_, batch.h, batch.candidates, &supports)
            .ok());
    ASSERT_EQ(supports.size(), batch.candidates.size());
    const TransactionDb& db = views_.Level(batch.h).db;
    for (size_t i = 0; i < supports.size(); ++i) {
      EXPECT_EQ(supports[i], db.CountSupport(batch.candidates[i]))
          << "level " << batch.h << ", "
          << batch.candidates[i].ToString();
    }
  }

  ThreadPool pool_{4};
  testutil::Dataset data_;
  LevelViews views_;
};

TEST_F(CountLayouts, BothLayoutsMatchReferenceScan) {
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool_}) {
    SCOPED_TRACE(p == nullptr ? "no pool" : "4-thread pool");
    Rng rng(31);
    for (int k = 2; k <= 4; ++k) {
      SCOPED_TRACE("k=" + std::to_string(k));
      SupportCounter counter(p);
      ExpectExactSupports(&counter, DenseBatch(k, &rng));
      ExpectExactSupports(&counter, TrieBatch(k, &rng));
      EXPECT_EQ(counter.num_db_scans(), 2u);
      EXPECT_EQ(counter.num_dense_scans(), 1u);
    }
  }
}

TEST_F(CountLayouts, WarmCounterAlternatesLayouts) {
  // One counter's pooled buffers serve dense and trie batches in turn
  // (the row-reuse seam): each must count as a fresh counter would.
  Rng rng(77);
  SupportCounter warm(&pool_);
  for (int round = 0; round < 6; ++round) {
    const int k = 2 + round % 3;
    ExpectExactSupports(&warm, round % 2 == 0 ? DenseBatch(k, &rng)
                                              : TrieBatch(k, &rng));
  }
  EXPECT_EQ(warm.num_db_scans(), 6u);
  EXPECT_EQ(warm.num_dense_scans(), 3u);
}

TEST_F(CountLayouts, WarmCounterAlternatesTrieDenseAndOccurring) {
  // Occurring batches share the pooled scratch with candidate batches:
  // every batch must count as a fresh counter would, and the hash
  // tables handed back by each join must be the warm ones the next
  // occurring batch counts into.
  Rng rng(78);
  SupportCounter warm(&pool_);
  const std::vector<ItemId> items = OccurringItems(data_.taxonomy, 2);
  const OccurringResult want =
      OccurringReference(views_.Level(2).db, items, 3);
  ExpectOccurring(&warm, views_, 2, 3, items, want);
  const uint64_t cold_grow_events = warm.arena_grow_events();
  EXPECT_GT(cold_grow_events, 0u);
  for (int round = 0; round < 6; ++round) {
    const int k = 2 + round % 3;
    ExpectExactSupports(&warm, round % 2 == 0 ? DenseBatch(k, &rng)
                                              : TrieBatch(k, &rng));
    ExpectOccurring(&warm, views_, 2, 3, items, want);
  }
  EXPECT_EQ(warm.arena_grow_events(), cold_grow_events);
  EXPECT_EQ(warm.num_db_scans(), 13u);
  EXPECT_EQ(warm.num_dense_scans(), 3u);
  EXPECT_EQ(warm.num_occurring_scans(), 7u);
}

TEST(CountLayoutEdges, EmptyDatabaseCountsZero) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  auto views = LevelViews::Build(TransactionDb(), data.taxonomy);
  ASSERT_TRUE(views.ok()) << views.status();
  const int h = views->height();
  const std::vector<ItemId>& leaves = data.taxonomy.NodesAtLevel(h);
  const std::vector<Itemset> candidates = {
      Itemset::Pair(leaves[0], leaves[1]),
      Itemset::Pair(leaves[1], leaves[2])};
  ASSERT_EQ(LayoutOf(candidates), CountLayout::kDense);
  ThreadPool pool(4);
  SupportCounter counter(&pool);
  std::vector<uint32_t> supports;
  ASSERT_TRUE(counter.Count(&*views, h, candidates, &supports).ok());
  EXPECT_EQ(supports, std::vector<uint32_t>(2, 0));
}

TEST(CountLayoutEdges, FiredTokenReturnsItsStatus) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  auto views = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views.ok()) << views.status();
  const std::vector<Itemset> candidates = {Itemset::Pair(
      *data.dict.Find("a11"), *data.dict.Find("b11"))};
  ASSERT_EQ(LayoutOf(candidates), CountLayout::kDense);

  CancelToken cancelled;
  cancelled.Cancel();
  CancelToken lapsed;
  lapsed.SetDeadlineAfterMs(-1);
  ThreadPool pool(4);
  for (const CancelToken* token : {&cancelled, &lapsed}) {
    SupportCounter counter(&pool, token);
    std::vector<uint32_t> supports;
    EXPECT_EQ(counter.Count(&*views, 3, candidates, &supports).code(),
              token->ToStatus().code());
    EXPECT_FALSE(token->ToStatus().ok());
    EXPECT_EQ(counter.num_db_scans(), 0u);
  }
}

TEST(LevelViews, RejectsNonLeafAndUnknownItems) {
  testutil::Dataset data = testutil::PaperToyDataset();
  // A transaction containing an internal node must be rejected.
  TransactionDb bad_db;
  bad_db.Add({*data.dict.Find("a1")});
  EXPECT_FALSE(LevelViews::Build(bad_db, data.taxonomy).ok());

  // A transaction containing an id outside the taxonomy.
  TransactionDb unknown_db;
  unknown_db.Add({static_cast<ItemId>(data.taxonomy.id_space() + 5)});
  EXPECT_FALSE(LevelViews::Build(unknown_db, data.taxonomy).ok());
}

TEST(LevelViews, SingleSupportsMatchGeneralizedFrequencies) {
  testutil::Dataset data = testutil::PaperToyDataset();
  auto views = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views.ok());
  EXPECT_EQ(views->height(), 3);
  EXPECT_EQ(views->num_transactions(), 10u);
  // Paper Example 3: sup(a) = 8, sup(b) = 9 at level 1.
  EXPECT_EQ(views->ItemSupport(1, *data.dict.Find("a")), 8u);
  EXPECT_EQ(views->ItemSupport(1, *data.dict.Find("b")), 9u);
  // Level 2: sup(a1) = 6, sup(b1) = 6.
  EXPECT_EQ(views->ItemSupport(2, *data.dict.Find("a1")), 6u);
  EXPECT_EQ(views->ItemSupport(2, *data.dict.Find("b1")), 6u);
  EXPECT_GE(views->MaxUniversalWidth(), 2u);
}

}  // namespace
}  // namespace flipper
