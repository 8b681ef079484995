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
//
// Figure 8(d) (candidates counted against the correlation thresholds)
// is asserted from the same counts: BASIC counts every frequent
// itemset whatever gamma and epsilon are, and each pruning stack counts
// no more candidates as gamma grows.

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

/// Quest over the paper's balanced taxonomy (§5.1: 10 roots, fanout 5)
/// with the generator's default seed, at 2% of the paper's N=100k,
/// mined at Table 3 thr10. The oracle (BASIC) run at the default
/// thresholds is shared by every test.
class Fidelity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto taxonomy = GenerateBalancedTaxonomy(TaxonomyGenParams{}, &dict_);
    ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
    taxonomy_ = std::move(taxonomy).value();
    QuestParams params;
    params.num_transactions = 2000;
    auto db = GenerateQuest(params, taxonomy_);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    auto oracle = NaiveMiner::Run(db_, taxonomy_, Config());
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    basic_ = Summarize(*oracle);
  }

  /// gamma 0.3, epsilon 0.1, Kulczynski, Table 3 thr10.
  static MiningConfig Config() {
    MiningConfig config;
    config.min_support = {0.001, 0.0001, 0.00006, 0.00003};
    config.num_threads = 2;
    return config;
  }

  static RunCounts Mine(MiningConfig config, const PruningOptions& pruning) {
    config.pruning = pruning;
    auto result = FlipperMiner::Run(db_, taxonomy_, config);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? Summarize(*result) : RunCounts{};
  }

  inline static ItemDictionary dict_;
  inline static Taxonomy taxonomy_;
  inline static TransactionDb db_;
  inline static RunCounts basic_;
};

TEST_F(Fidelity, QuestThr10PruningCountClaims) {
  const RunCounts& basic = basic_;
  const MiningConfig config = Config();
  const RunCounts flipping = Mine(config, PruningOptions::FlippingOnly());
  const RunCounts tpg = Mine(config, PruningOptions::FlippingTpg());
  const RunCounts full = Mine(config, PruningOptions::Full());

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

TEST_F(Fidelity, QuestThr10Figure8dCountsAcrossGamma) {
  // BASIC prunes by support alone, so the thresholds cannot move its
  // count: one more oracle run at the far corner must match.
  MiningConfig corner = Config();
  corner.gamma = 0.6;
  corner.epsilon = 0.5;
  auto oracle = NaiveMiner::Run(db_, taxonomy_, corner);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(oracle->stats.total_counted, basic_.counted);

  // A larger gamma leaves fewer positive itemsets, so fewer chains can
  // flip, and every stack counts no more candidates (the paper's
  // Figure 8(d)). Asserted at epsilon 0.1 only: at epsilon 0.05 this
  // store breaks the trend between gamma 0.2 and 0.25 (FLIPPING counts
  // 45,448 then 48,402, +TPG 15,265 then 18,219).
  const struct {
    const char* name;
    PruningOptions pruning;
  } stacks[] = {{"FLIPPING", PruningOptions::FlippingOnly()},
                {"+TPG", PruningOptions::FlippingTpg()},
                {"full", PruningOptions::Full()}};
  for (const auto& stack : stacks) {
    std::string counts = std::string(stack.name) + " counted:";
    uint64_t previous = 0;
    bool first = true;
    for (const double gamma : {0.2, 0.3, 0.4, 0.5, 0.6}) {
      MiningConfig config = Config();
      config.gamma = gamma;
      config.epsilon = 0.1;
      const RunCounts run = Mine(config, stack.pruning);
      counts += " " + std::to_string(run.counted);
      if (!first) {
        EXPECT_LE(run.counted, previous)
            << stack.name << " counted more at gamma " << gamma;
      }
      EXPECT_GT(run.counted, 0u) << stack.name << " gamma " << gamma;
      previous = run.counted;
      first = false;
    }
    std::cout << "fidelity fig8d: " << counts << "\n";
  }
}

}  // namespace
}  // namespace flipper
