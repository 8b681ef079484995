// Parallel-vs-serial equivalence: the sharded counting engine must
// produce bit-identical supports and identical mining output for every
// thread count (level_views_test covers the sharded view build).

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/flipper_miner.h"
#include "core/naive_miner.h"
#include "core/support_counting.h"
#include "test_util.h"

namespace flipper {
namespace {

std::string Fingerprint(const MiningResult& result) {
  std::string out;
  for (const FlippingPattern& p : result.patterns) {
    out += p.ToString() + "\n";
  }
  return out;
}

/// Thread counts the equivalence suites sweep: serial, 2, 4, and
/// whatever the hardware reports (0 resolves to it).
const int kThreadCounts[] = {1, 2, 4, 0};

TEST(ParallelCounting, TrieScanMatchesSerialAndBruteForce) {
  Rng rng(12345);
  for (int trial = 0; trial < 5; ++trial) {
    TransactionDb db;
    std::vector<ItemId> txn;
    const ItemId alphabet = 30;
    // Enough transactions that the scan actually shards (>= 512/shard).
    for (int t = 0; t < 4096; ++t) {
      txn.clear();
      const int width = 1 + static_cast<int>(rng.Below(9));
      for (int i = 0; i < width; ++i) {
        txn.push_back(static_cast<ItemId>(rng.Below(alphabet)));
      }
      db.Add(txn);
    }
    const int k = 2 + static_cast<int>(rng.Below(3));
    std::vector<Itemset> candidates;
    std::unordered_set<Itemset, ItemsetHash> seen;
    for (int c = 0; c < 80; ++c) {
      Itemset s;
      while (s.size() < k) {
        s.Insert(static_cast<ItemId>(rng.Below(alphabet)));
      }
      if (seen.insert(s).second) candidates.push_back(s);
    }

    std::vector<uint32_t> serial(candidates.size(), 0);
    CountBatchWithTrie(db, candidates, nullptr, serial);
    for (size_t i = 0; i < candidates.size(); ++i) {
      ASSERT_EQ(serial[i], db.CountSupport(candidates[i]));
    }
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      std::vector<uint32_t> parallel(candidates.size(), 0);
      CountBatchWithTrie(db, candidates, &pool, parallel);
      EXPECT_EQ(parallel, serial)
          << "trial " << trial << ", threads " << pool.num_threads();
    }
  }
}

class MinerEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinerEquivalence, SameSupportsAndPatternsForAnyThreadCount) {
  // Large enough to shard (>= 512 txns/shard at 4 threads).
  testutil::Dataset data = testutil::RandomDataset(
      GetParam(), /*num_roots=*/4, /*fanout=*/2, /*depth=*/3,
      /*num_txns=*/3000, /*max_width=*/6);

  MiningConfig config;
  config.gamma = 0.4;
  config.epsilon = 0.2;
  config.min_support = {0.05, 0.02, 0.01};

  config.num_threads = 1;
  auto serial = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const std::string serial_fp = Fingerprint(*serial);

  auto serial_naive = NaiveMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(serial_naive.ok()) << serial_naive.status();
  const std::string serial_naive_fp = Fingerprint(*serial_naive);

  for (int threads : kThreadCounts) {
    config.num_threads = threads;
    auto parallel = FlipperMiner::Run(data.db, data.taxonomy, config);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(Fingerprint(*parallel), serial_fp)
        << "flipper threads=" << threads;
    EXPECT_EQ(parallel->patterns.size(), serial->patterns.size());

    auto naive = NaiveMiner::Run(data.db, data.taxonomy, config);
    ASSERT_TRUE(naive.ok()) << naive.status();
    EXPECT_EQ(Fingerprint(*naive), serial_naive_fp)
        << "naive threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinerEquivalence,
                         ::testing::Values(7, 21, 77));

}  // namespace
}  // namespace flipper
