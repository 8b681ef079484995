// Support counting: CandidateTrie against brute force, and
// SupportCounter against the reference scan at every level, with and
// without a pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/candidate_trie.h"
#include "core/level_views.h"
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
