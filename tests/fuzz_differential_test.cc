// Seed-driven randomized differential harness for the whole
// input-to-patterns pipeline. Every round draws a random dataset
// (taxonomy shape, transaction count/width) and a random mining
// configuration (thresholds, measure, pruning stack, scan cells),
// then requires that
//
//   - FlipperMiner over the text-loaded inputs,
//   - FlipperMiner over a fresh (raw, v1) FlipperStore round trip,
//   - FlipperMiner over a raw store grown with 1-3 random append
//     sessions (base prefix + OpenAppend batches, commit trailer in
//     play, one column block pair per session),
//   - FlipperMiner over a legacy v2 store (varint columns + segment
//     catalog, small shard-misaligned segments), and
//   - FlipperMiner over the legacy v2 file with one varint block pair
//     per session over the same cuts
//
// are all byte-identical to the NaiveMiner oracle's CSV export, at 1
// and 4 threads. This is the guard rail for the block concatenation,
// the v2 decode and the append path: a mis-written block pair or a
// wrongly decoded transaction
// shows up as a support (and usually a pattern-set) difference against
// the oracle. The oracle counts with the trie layout only, so the
// comparison also pits the miners' dense layout against the trie; each
// round also counts random batches on both sides of the layout bound
// directly against the reference scan.
//
// Reproducing a failure: every round prints its seed into the assert
// message; rerun that exact round with
//
//   FLIPPER_FUZZ_SEED=<seed> FLIPPER_FUZZ_ITERS=1 ./fuzz_differential_test
//
// FLIPPER_FUZZ_ITERS (default 10) scales the number of rounds; CI keeps
// it small, soak runs can raise it arbitrarily.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/flipper_miner.h"
#include "core/level_views.h"
#include "core/naive_miner.h"
#include "core/pattern_io.h"
#include "core/support_counting.h"
#include "data/db_io.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// One round's inputs: the canonical id space comes from reloading the
/// serialized text files, exactly as `flipper_cli mine <basket> <tax>`
/// would assign ids.
struct RoundInputs {
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
  std::string v1_path;
  std::string v2_path;
};

RoundInputs MakeRoundInputs(uint64_t seed, const testutil::Dataset& data,
                            uint32_t segment_txns) {
  RoundInputs inputs;
  const std::string tag = "fuzz_" + std::to_string(seed);
  const std::string basket = TempPath(tag + ".basket");
  const std::string taxonomy = TempPath(tag + ".taxonomy");
  EXPECT_TRUE(
      WriteTaxonomyFile(data.taxonomy, data.dict, taxonomy).ok());
  EXPECT_TRUE(WriteBasketFile(data.db, data.dict, basket).ok());
  auto loaded_taxonomy = ReadTaxonomyFile(taxonomy, &inputs.dict);
  EXPECT_TRUE(loaded_taxonomy.ok()) << loaded_taxonomy.status();
  inputs.taxonomy = std::move(loaded_taxonomy).value();
  auto loaded_db = ReadBasketFile(basket, &inputs.dict);
  EXPECT_TRUE(loaded_db.ok()) << loaded_db.status();
  inputs.db = std::move(loaded_db).value();

  inputs.v1_path = TempPath(tag + "_v1.fdb");
  inputs.v2_path = TempPath(tag + "_v2.fdb");
  storage::StoreWriter::Options options;
  options.segment_txns = segment_txns;
  EXPECT_TRUE(storage::WriteStoreFile(inputs.v1_path, inputs.db,
                                      inputs.dict, inputs.taxonomy,
                                      options)
                  .ok());
  testutil::V2StoreOptions v2_options;
  v2_options.segment_txns = segment_txns;
  testutil::WriteV2Store(inputs.v2_path, inputs.db, inputs.dict,
                         inputs.taxonomy, v2_options);
  return inputs;
}

/// The incrementally grown stores of one round.
struct AppendedStores {
  std::string raw_path;  // Create() + OpenAppend() sessions (v1)
  std::string v2_path;   // legacy v2 with one block pair per session
};

/// Writes `inputs.db` grown incrementally over random split points: a
/// base prefix via Create() plus `num_batches` OpenAppend() sessions,
/// and the legacy v2 file those sessions would have left (one varint
/// block pair per session). Both must mine exactly like the
/// bulk-written store.
AppendedStores WriteAppendedStores(const RoundInputs& inputs,
                                   const std::string& tag,
                                   uint32_t segment_txns,
                                   uint32_t num_batches, Rng* rng) {
  AppendedStores out;
  out.raw_path = TempPath(tag + "_appended.fdb");
  out.v2_path = TempPath(tag + "_v2_appended.fdb");
  const std::string& path = out.raw_path;
  const uint64_t total = inputs.db.size();
  std::vector<uint64_t> cuts = {0, total};
  for (uint32_t b = 0; b < num_batches; ++b) {
    cuts.push_back(rng->Below(total + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  {
    storage::StoreWriter::Options options;
    options.segment_txns = segment_txns;
    auto writer = storage::StoreWriter::Create(path, options);
    EXPECT_TRUE(writer.ok()) << writer.status();
    for (uint64_t t = 0; t < cuts[1]; ++t) {
      EXPECT_TRUE(writer->Append(inputs.db.Get(t)).ok());
    }
    EXPECT_TRUE(writer->Finish(inputs.dict, inputs.taxonomy).ok());
  }
  // Each batch is one commit (empty batches exercise the zero-size
  // block pair).
  for (size_t cut = 1; cut + 1 < cuts.size(); ++cut) {
    auto writer = storage::StoreWriter::OpenAppend(path);
    EXPECT_TRUE(writer.ok()) << writer.status();
    for (uint64_t t = cuts[cut]; t < cuts[cut + 1]; ++t) {
      EXPECT_TRUE(writer->Append(inputs.db.Get(t)).ok());
    }
    EXPECT_TRUE(writer->Finish(inputs.dict, inputs.taxonomy).ok());
  }
  testutil::V2StoreOptions v2_options;
  v2_options.segment_txns = segment_txns;
  v2_options.block_starts.assign(cuts.begin() + 1, cuts.end() - 1);
  testutil::WriteV2Store(out.v2_path, inputs.db, inputs.dict,
                         inputs.taxonomy, v2_options);
  return out;
}

/// Random but valid mining configuration; the whole pruning stack is
/// in play because every layer must preserve the answer set.
MiningConfig RandomConfig(Rng* rng) {
  MiningConfig config;
  config.gamma = 0.4 + 0.25 * rng->NextDouble();
  config.epsilon =
      std::min(0.1 + 0.2 * rng->NextDouble(), 0.8 * config.gamma);
  const double base = 0.004 + 0.016 * rng->NextDouble();
  config.min_support = {3 * base, 2 * base, base};
  static constexpr MeasureKind kMeasures[] = {
      MeasureKind::kKulczynski, MeasureKind::kCosine,
      MeasureKind::kAllConfidence};
  config.measure = kMeasures[rng->Below(3)];
  static const PruningOptions kPruning[] = {
      PruningOptions::Full(), PruningOptions::FlippingTpg(),
      PruningOptions::FlippingOnly(), PruningOptions::Basic()};
  config.pruning = kPruning[rng->Below(4)];
  config.enable_scan_cells = rng->Bernoulli(0.7);
  return config;
}

std::string ToCsv(const std::vector<FlippingPattern>& patterns,
                  const ItemDictionary& dict) {
  std::ostringstream oss;
  EXPECT_TRUE(WritePatternsCsv(patterns, &dict, oss).ok());
  return oss.str();
}

std::string DescribeConfig(const MiningConfig& config) {
  return "gamma=" + std::to_string(config.gamma) +
         " epsilon=" + std::to_string(config.epsilon) +
         " minsup0=" + std::to_string(config.min_support[0]) +
         " measure=" + std::to_string(static_cast<int>(config.measure)) +
         " pruning=" + config.pruning.ToString() +
         " scan_cells=" + std::to_string(config.enable_scan_cells);
}

/// The layout SupportCounter picks for `candidates`.
CountLayout LayoutOf(const std::vector<Itemset>& candidates) {
  std::unordered_set<ItemId> items;
  for (const Itemset& c : candidates) items.insert(c.begin(), c.end());
  return ChooseCountLayout(items.size(), candidates.front().size(),
                           candidates.size());
}

/// Counts random uniform-arity batches (k = 2..4) of every level of
/// `views` with SupportCounter and checks each support against the
/// reference scan. Most candidates are k-subsets of the level's
/// transactions, the rest uniform draws over its nodes; a last sparse
/// batch of disjoint 4-itemsets, padded with ids no transaction holds
/// when a level is too narrow, always takes the trie. Returns how many
/// batches took each layout, indexed by CountLayout.
std::array<int, 2> CountRandomBatches(const LevelViews& views,
                                      const Taxonomy& taxonomy,
                                      Rng* rng) {
  std::array<int, 2> by_layout = {0, 0};
  ThreadPool pool(4);
  SupportCounter counter(&pool);
  auto check = [&](int h, const std::vector<Itemset>& candidates) {
    ++by_layout[static_cast<size_t>(LayoutOf(candidates))];
    std::vector<uint32_t> supports;
    ASSERT_TRUE(counter.Count(&views, h, candidates, &supports).ok());
    for (size_t i = 0; i < candidates.size(); ++i) {
      ASSERT_EQ(supports[i],
                views.Level(h).db.CountSupport(candidates[i]))
          << "level " << h << ", " << candidates[i].ToString();
    }
  };
  for (int h = 1; h <= views.height(); ++h) {
    const TransactionDb& db = views.Level(h).db;
    const std::vector<ItemId>& nodes = taxonomy.NodesAtLevel(h);
    for (int k = 2; k <= 4 && k <= static_cast<int>(nodes.size()); ++k) {
      std::vector<Itemset> candidates;
      std::unordered_set<Itemset, ItemsetHash> seen;
      for (int c = 0; c < 48; ++c) {
        Itemset s;
        const auto txn = db.Get(static_cast<TxnId>(rng->Below(db.size())));
        if (rng->Bernoulli(0.75) && txn.size() >= static_cast<size_t>(k)) {
          while (s.size() < k) s.Insert(txn[rng->Below(txn.size())]);
        }
        while (s.size() < k) s.Insert(nodes[rng->Below(nodes.size())]);
        if (seen.insert(s).second) candidates.push_back(s);
      }
      check(h, candidates);
    }
  }
  // Three disjoint 4-itemsets: C(12, 4) = 495 combinations for 3
  // candidates is past the per-candidate bound.
  const int h = views.height();
  std::vector<ItemId> pool_items = taxonomy.NodesAtLevel(h);
  for (auto ghost = static_cast<ItemId>(taxonomy.id_space());
       pool_items.size() < 12; ++ghost) {
    pool_items.push_back(ghost);
  }
  for (size_t i = pool_items.size(); i > 1; --i) {
    std::swap(pool_items[i - 1], pool_items[rng->Below(i)]);
  }
  std::vector<Itemset> sparse(3);
  for (size_t i = 0; i < 12; ++i) sparse[i / 4].Insert(pool_items[i]);
  check(h, sparse);
  return by_layout;
}

/// Runs one round; returns the oracle's pattern count so the suite
/// can prove it is not passing vacuously on empty answer sets.
size_t RunRound(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  // Dataset shape.
  const auto num_roots = static_cast<uint32_t>(3 + rng.Below(4));
  const auto fanout = static_cast<uint32_t>(2 + rng.Below(2));
  const auto depth = static_cast<uint32_t>(2 + rng.Below(3));
  const auto num_txns = static_cast<uint32_t>(200 + rng.Below(600));
  const auto max_width = static_cast<uint32_t>(4 + rng.Below(7));
  // Small segments, misaligned with the scan sharding.
  const auto segment_txns = static_cast<uint32_t>(24 + rng.Below(80));

  const testutil::Dataset data = testutil::RandomDataset(
      seed, num_roots, fanout, depth, num_txns, max_width);
  RoundInputs inputs = MakeRoundInputs(seed, data, segment_txns);
  const MiningConfig config = RandomConfig(&rng);
  const auto num_batches = static_cast<uint32_t>(1 + rng.Below(3));
  // Cancellation dimension: about half the rounds run every miner with
  // a live but never-firing CancelToken attached. A present-but-unfired
  // token must be byte-invisible — any divergence here means the cancel
  // polling perturbed the answer set.
  const bool with_token = rng.Bernoulli(0.5);
  CancelToken unfired_token;
  unfired_token.SetDeadlineAfterMs(60 * 60 * 1000);
  const CancelToken* run_token = with_token ? &unfired_token : nullptr;

  const std::string repro =
      "seed=" + std::to_string(seed) +
      " (repro: FLIPPER_FUZZ_SEED=" + std::to_string(seed) +
      " FLIPPER_FUZZ_ITERS=1 ./fuzz_differential_test)\n  dataset: " +
      "roots=" + std::to_string(num_roots) +
      " fanout=" + std::to_string(fanout) +
      " depth=" + std::to_string(depth) +
      " txns=" + std::to_string(num_txns) +
      " segment_txns=" + std::to_string(segment_txns) +
      " append_batches=" + std::to_string(num_batches) +
      " unfired_token=" + std::to_string(with_token) +
      "\n  config: " + DescribeConfig(config);
  SCOPED_TRACE(repro);

  const AppendedStores appended_paths = WriteAppendedStores(
      inputs, "fuzz_" + std::to_string(seed), segment_txns, num_batches,
      &rng);

  // The oracle: support-only Apriori over every level, patterns
  // extracted post hoc.
  MiningConfig oracle_config = config;
  oracle_config.num_threads = 1;
  auto oracle =
      NaiveMiner::Run(inputs.db, inputs.taxonomy, oracle_config);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  if (!oracle.ok()) return 0;
  const std::string expected = ToCsv(oracle->patterns, inputs.dict);

  auto v1 = storage::StoreReader::Open(inputs.v1_path);
  auto v2 = storage::StoreReader::Open(inputs.v2_path);
  auto appended = storage::StoreReader::Open(appended_paths.raw_path);
  auto v2_appended = storage::StoreReader::Open(appended_paths.v2_path);
  EXPECT_TRUE(v1.ok()) << v1.status();
  EXPECT_TRUE(v2.ok()) << v2.status();
  EXPECT_TRUE(appended.ok()) << appended.status();
  EXPECT_TRUE(v2_appended.ok()) << v2_appended.status();
  if (!v1.ok() || !v2.ok() || !appended.ok() || !v2_appended.ok()) {
    return 0;
  }
  EXPECT_EQ(v1->version(), storage::kFormatVersionV1);
  EXPECT_EQ(v2->version(), storage::kFormatVersionV2);
  EXPECT_NE(v2->catalog(), nullptr);
  EXPECT_LE(v2->file_size(), v1->file_size());
  EXPECT_TRUE(appended->VerifyChecksums().ok());
  EXPECT_EQ(appended->version(), storage::kFormatVersionV1);
  EXPECT_EQ(appended->header().section_count,
            storage::kNumSectionsV1 + 2 * num_batches);
  EXPECT_EQ(appended->db().size(), inputs.db.size());
  EXPECT_EQ(v2_appended->header().section_count,
            storage::kNumSectionsV2 + 2 * num_batches);

  struct Source {
    const char* name;
    const TransactionDb* db;
    const Taxonomy* taxonomy;
    const ItemDictionary* dict;
  };
  const Source sources[] = {
      {"text", &inputs.db, &inputs.taxonomy, &inputs.dict},
      {"v1-store", &v1->db(), &v1->taxonomy(), &v1->dict()},
      {"v2-store", &v2->db(), &v2->taxonomy(), &v2->dict()},
      {"v1-appended", &appended->db(), &appended->taxonomy(),
       &appended->dict()},
      {"v2-appended", &v2_appended->db(), &v2_appended->taxonomy(),
       &v2_appended->dict()},
  };
  for (const int threads : {1, 4}) {
    for (const Source& source : sources) {
      MiningConfig run_config = config;
      run_config.num_threads = threads;
      run_config.cancel = run_token;
      auto run =
          FlipperMiner::Run(*source.db, *source.taxonomy, run_config);
      EXPECT_TRUE(run.ok())
          << source.name << " threads=" << threads << ": "
          << run.status();
      if (!run.ok()) return 0;
      EXPECT_EQ(ToCsv(run->patterns, *source.dict), expected)
          << source.name << " diverged from the naive oracle at "
          << threads << " thread(s)";
    }
  }

  // Concurrency dimension: the daemon's serving shape. Several miners
  // run AT ONCE over one shared LevelViews instance of the v2 store
  // (each run brings its own pool), and every one must still match the
  // oracle byte for byte.
  {
    auto shared_views = LevelViews::Build(v2->db(), v2->taxonomy());
    EXPECT_TRUE(shared_views.ok()) << shared_views.status();
    if (!shared_views.ok()) return 0;
    constexpr int kConcurrent = 4;
    std::vector<std::string> bodies(kConcurrent);
    std::vector<std::thread> threads;
    for (int i = 0; i < kConcurrent; ++i) {
      threads.emplace_back([&, i]() {
        MiningConfig run_config = config;
        run_config.num_threads = 1 + i % 3;
        run_config.cancel = run_token;
        auto run = FlipperMiner::Run(v2->db(), v2->taxonomy(),
                                     run_config, &*shared_views);
        ASSERT_TRUE(run.ok())
            << "concurrent run " << i << ": " << run.status();
        bodies[i] = ToCsv(run->patterns, v2->dict());
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kConcurrent; ++i) {
      EXPECT_EQ(bodies[i], expected)
          << "concurrent shared-views run " << i
          << " diverged from the naive oracle";
    }
  }
  EXPECT_FALSE(unfired_token.Fired());

  // Counting dimension: batches on both sides of the layout bound.
  {
    auto views = LevelViews::Build(inputs.db, inputs.taxonomy);
    EXPECT_TRUE(views.ok()) << views.status();
    if (!views.ok()) return 0;
    const std::array<int, 2> by_layout =
        CountRandomBatches(*views, inputs.taxonomy, &rng);
    EXPECT_GT(by_layout[static_cast<size_t>(CountLayout::kDense)], 0);
    EXPECT_GT(by_layout[static_cast<size_t>(CountLayout::kTrie)], 0);
  }
  return oracle->patterns.size();
}

TEST(FuzzDifferential, RandomDatasetsConfigsAndStores) {
  const auto iters = static_cast<uint64_t>(
      std::max<int64_t>(1, GetEnvInt("FLIPPER_FUZZ_ITERS", 10)));
  const auto master = static_cast<uint64_t>(
      GetEnvInt("FLIPPER_FUZZ_SEED", 1));
  size_t rounds_with_patterns = 0;
  for (uint64_t round = 0; round < iters; ++round) {
    if (RunRound(master + round) > 0) ++rounds_with_patterns;
    if (::testing::Test::HasFailure()) break;  // first seed is enough
  }
  // A differential suite whose oracle never emits a pattern proves
  // nothing; the default seed is chosen so several rounds do. (Guarded
  // to >= 4 rounds so single-round repro runs of a quiet seed do not
  // trip it.)
  if (iters >= 4) {
    EXPECT_GT(rounds_with_patterns, 0u)
        << "every oracle answer set was empty — the generator or "
           "thresholds regressed";
  }
}

}  // namespace
}  // namespace flipper
