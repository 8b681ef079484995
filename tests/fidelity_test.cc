// Reduced-scale checks of the paper's qualitative claims (arXiv
// 1201.0233 §5), asserted from deterministic counts, never from times.
// This is the ctest `fidelity` label. It starts with the three count
// claims perfbench checks at full scale on the Quest store at Table 3
// thr10:
//
//   - each pruning layer counts no more candidates than the one below
//     it: BASIC (the NaiveMiner oracle) >= FLIPPING >= FLIPPING+TPG >=
//     the full stack (+SIBP);
//   - BASIC counts at least 10x the candidates of the full stack;
//   - flipping patterns are rare: at most 1% of the negative itemsets.
//
// Every pruned run must also return the oracle's patterns exactly.

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

#include "core/flipper_miner.h"
#include "core/naive_miner.h"
#include "core/pattern_io.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"

namespace flipper {
namespace {

struct RunCounts {
  uint64_t counted = 0;
  uint64_t negatives = 0;
  size_t patterns = 0;
  std::string csv;
};

RunCounts Summarize(const MiningResult& result) {
  RunCounts run;
  run.counted = result.stats.total_counted;
  run.negatives = result.stats.num_negative;
  run.patterns = result.patterns.size();
  std::ostringstream csv;
  EXPECT_TRUE(WritePatternsCsv(result.patterns, nullptr, csv).ok());
  run.csv = csv.str();
  return run;
}

TEST(Fidelity, QuestThr10PruningCountClaims) {
  // Quest over the paper's balanced taxonomy (§5.1: 10 roots, fanout 5)
  // with the generator's default seed, at 2% of the paper's N=100k.
  ItemDictionary dict;
  auto taxonomy = GenerateBalancedTaxonomy(TaxonomyGenParams{}, &dict);
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
  QuestParams params;
  params.num_transactions = 2000;
  auto db = GenerateQuest(params, *taxonomy);
  ASSERT_TRUE(db.ok()) << db.status();

  MiningConfig config;  // gamma 0.3, epsilon 0.1, Kulczynski
  config.min_support = {0.001, 0.0001, 0.00006, 0.00003};  // Table 3 thr10
  config.num_threads = 2;

  auto oracle = NaiveMiner::Run(*db, *taxonomy, config);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const RunCounts basic = Summarize(*oracle);

  const auto mine = [&](const PruningOptions& pruning) {
    MiningConfig pruned = config;
    pruned.pruning = pruning;
    auto result = FlipperMiner::Run(*db, *taxonomy, pruned);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? Summarize(*result) : RunCounts{};
  };
  const RunCounts flipping = mine(PruningOptions::FlippingOnly());
  const RunCounts tpg = mine(PruningOptions::FlippingTpg());
  const RunCounts full = mine(PruningOptions::Full());

  const std::string counts =
      "candidates counted: BASIC " + std::to_string(basic.counted) +
      ", FLIPPING " + std::to_string(flipping.counted) + ", +TPG " +
      std::to_string(tpg.counted) + ", full " +
      std::to_string(full.counted) + "; flips " +
      std::to_string(basic.patterns) + " of " +
      std::to_string(basic.negatives) + " negatives";
  std::cout << "fidelity: " << counts << "\n";
  SCOPED_TRACE(counts);
  ASSERT_GT(full.counted, 0u);
  ASSERT_GT(basic.patterns, 0u);

  EXPECT_GE(basic.counted, flipping.counted);
  EXPECT_GE(flipping.counted, tpg.counted);
  EXPECT_GE(tpg.counted, full.counted);
  EXPECT_GE(basic.counted, 10 * full.counted);
  EXPECT_LE(basic.patterns * 100, basic.negatives);

  EXPECT_EQ(flipping.csv, basic.csv);
  EXPECT_EQ(tpg.csv, basic.csv);
  EXPECT_EQ(full.csv, basic.csv);
}

}  // namespace
}  // namespace flipper
