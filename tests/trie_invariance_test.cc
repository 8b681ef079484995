// Dedicated invariance grid for the counting fast paths: mined output
// must be byte-identical across {1, 4 threads} × {text, fresh store,
// appended store} inputs, across every probe kernel the host can force
// (avx2/sse2/portable/scalar), and the counter's trie/buffer reuse
// across consecutive counts (the row seam) must reproduce
// fresh-counter supports exactly.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/candidate_trie.h"
#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "core/support_counting.h"
#include "data/db_io.h"
#include "datagen/groceries_sim.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

std::string ToCsv(const std::vector<FlippingPattern>& patterns,
                  const ItemDictionary& dict) {
  std::ostringstream oss;
  EXPECT_TRUE(WritePatternsCsv(patterns, &dict, oss).ok());
  return oss.str();
}

TEST(TrieInvariance, MinedOutputIdenticalAcrossTrieModes) {
  // The groceries simulator plants flipping patterns by construction,
  // so the grid cannot pass vacuously; ids are re-canonicalized
  // through the text round trip exactly as the CLI would assign them.
  GroceriesParams params;
  params.num_transactions = 4'900;
  auto generated = GenerateGroceries(params);
  ASSERT_TRUE(generated.ok()) << generated.status();

  const std::string dir = ::testing::TempDir();
  const std::string basket = dir + "trie_invariance.basket";
  const std::string taxonomy_path = dir + "trie_invariance.taxonomy";
  const std::string v1_path = dir + "trie_invariance_v1.fdb";
  const std::string appended_path = dir + "trie_invariance_appended.fdb";
  ASSERT_TRUE(WriteTaxonomyFile(generated->taxonomy, generated->dict,
                                taxonomy_path)
                  .ok());
  ASSERT_TRUE(
      WriteBasketFile(generated->db, generated->dict, basket).ok());

  ItemDictionary dict;
  auto taxonomy = ReadTaxonomyFile(taxonomy_path, &dict);
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
  auto db = ReadBasketFile(basket, &dict);
  ASSERT_TRUE(db.ok()) << db.status();

  storage::StoreWriter::Options store_options;
  store_options.segment_txns = 256;  // several segments per shard
  ASSERT_TRUE(storage::WriteStoreFile(v1_path, *db, dict, *taxonomy,
                                      store_options)
                  .ok());
  // Three sessions: multi-block columns the reader concatenates into
  // buffers of its own (a non-borrowed column).
  testutil::WriteAppendedStore(appended_path, *db, dict, *taxonomy,
                               {1'500, 3'200}, /*segment_txns=*/256);
  auto v1 = storage::StoreReader::Open(v1_path);
  auto appended = storage::StoreReader::Open(appended_path);
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(appended.ok()) << appended.status();
  ASSERT_EQ(appended->header().section_count,
            storage::kNumSectionsV1 + 4);

  const MiningConfig config = generated->paper_config;

  // Reference: the default fast paths on the text-loaded inputs (the
  // miner-vs-oracle equivalence itself is the fuzz harness's job).
  MiningConfig reference_config = config;
  reference_config.num_threads = 1;
  auto reference = FlipperMiner::Run(*db, *taxonomy, reference_config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string expected = ToCsv(reference->patterns, dict);
  EXPECT_FALSE(reference->patterns.empty())
      << "vacuous grid: the reference answer set is empty";

  struct Source {
    const char* name;
    const TransactionDb* db;
    const Taxonomy* taxonomy;
    const ItemDictionary* dict;
  };
  const Source sources[] = {
      {"text", &*db, &*taxonomy, &dict},
      {"v1-store", &v1->db(), &v1->taxonomy(), &v1->dict()},
      {"v1-appended", &appended->db(), &appended->taxonomy(),
       &appended->dict()},
  };
  for (const int threads : {1, 4}) {
    for (const Source& source : sources) {
      MiningConfig run_config = config;
      run_config.num_threads = threads;
      auto run =
          FlipperMiner::Run(*source.db, *source.taxonomy, run_config);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(ToCsv(run->patterns, *source.dict), expected)
          << source.name << " threads=" << threads;
    }
  }

  // Every probe kernel the host can run must mine the same bytes: the
  // runtime dispatch may pick any of them depending on the CPU, so a
  // divergence here is a silent wrong-count on other hardware.
  for (const char* kernel : trie_probe::AvailableKernelNames()) {
    ASSERT_TRUE(trie_probe::ForcePackedKernel(kernel).ok()) << kernel;
    EXPECT_STREQ(trie_probe::PackedKernelName(), kernel);
    for (const int threads : {1, 4}) {
      MiningConfig run_config = config;
      run_config.num_threads = threads;
      auto run = FlipperMiner::Run(*db, *taxonomy, run_config);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(ToCsv(run->patterns, dict), expected)
          << "kernel=" << kernel << " threads=" << threads;
    }
  }
  trie_probe::ResetPackedKernel();
}

TEST(TrieInvariance, CounterReuseMatchesFreshCounters) {
  // The counter keeps one trie arena + shard buffers across counts;
  // feeding it several different batches in sequence (a row's cells)
  // must reproduce what fresh counters compute, at 1 and 4 threads,
  // sync and async.
  const testutil::Dataset data = testutil::RandomDataset(
      616, /*num_roots=*/6, /*fanout=*/3, /*depth=*/3,
      /*num_txns=*/3000, /*max_width=*/7);
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    auto views = LevelViews::Build(data.db, data.taxonomy, &pool);
    ASSERT_TRUE(views.ok()) << views.status();

    Rng rng(616);
    SupportCounter reused(&pool);
    const int h = data.taxonomy.height();
    const auto& nodes = data.taxonomy.NodesAtLevel(h);
    for (int round = 0; round < 5; ++round) {
      const int k = 2 + round % 3;
      std::vector<Itemset> candidates;
      std::unordered_set<Itemset, ItemsetHash> seen;
      for (int c = 0; c < 60 + round * 25; ++c) {
        Itemset s;
        while (s.size() < k) {
          s.Insert(nodes[rng.Below(nodes.size())]);
        }
        if (seen.insert(s).second) candidates.push_back(s);
      }
      std::vector<uint32_t> fresh_supports;
      ASSERT_TRUE(SupportCounter(&pool)
                      .Count(&*views, h, candidates, &fresh_supports)
                      .ok());

      std::vector<uint32_t> reused_sync;
      ASSERT_TRUE(
          reused.Count(&*views, h, candidates, &reused_sync).ok());
      EXPECT_EQ(reused_sync, fresh_supports)
          << "sync round " << round << " threads " << threads;

      std::vector<uint32_t> reused_async;
      CountFuture future =
          reused.StartCount(&*views, h, candidates, &reused_async);
      ASSERT_TRUE(future.Join().ok());
      EXPECT_EQ(reused_async, fresh_supports)
          << "async round " << round << " threads " << threads;
    }
  }
}

TEST(TrieInvariance, SharedBatchScratchMatchesFreshScratch) {
  // CountBatchWithTrie with one warm CountBatchScratch across batches
  // of changing arity equals scratch-free calls.
  const testutil::Dataset data = testutil::RandomDataset(717);
  Rng rng(717);
  const auto& leaves = data.taxonomy.Leaves();
  CountBatchScratch scratch;
  for (int round = 0; round < 6; ++round) {
    const int k = 1 + round % 3;
    std::vector<Itemset> candidates;
    std::unordered_set<Itemset, ItemsetHash> seen;
    for (int c = 0; c < 50; ++c) {
      Itemset s;
      while (s.size() < k) {
        s.Insert(leaves[rng.Below(leaves.size())]);
      }
      if (seen.insert(s).second) candidates.push_back(s);
    }
    std::vector<uint32_t> plain(candidates.size());
    ASSERT_TRUE(CountBatchWithTrie(data.db, candidates, nullptr, plain).ok());

    std::vector<uint32_t> warm(candidates.size());
    ASSERT_TRUE(
        CountBatchWithTrie(data.db, candidates, nullptr, warm, &scratch)
            .ok());
    EXPECT_EQ(warm, plain) << "round " << round;
  }
}

}  // namespace
}  // namespace flipper
