// Golden tests against the paper's worked examples: the Figure-4 toy
// database, the Figure-5 flipping pattern, and the Kulc values quoted
// in Example 3.

#include <gtest/gtest.h>

#include "core/flipper_miner.h"
#include "core/naive_miner.h"
#include "measures/measure.h"
#include "test_util.h"

namespace flipper {
namespace {

using testutil::Dataset;
using testutil::PaperToyDataset;

MiningConfig ToyConfig() {
  MiningConfig config;
  config.gamma = 0.6;
  config.epsilon = 0.35;
  config.min_support = {0.1, 0.1, 0.1};  // count threshold 1
  config.measure = MeasureKind::kKulczynski;
  return config;
}

TEST(ToyExample, TaxonomyShape) {
  Dataset data = PaperToyDataset();
  EXPECT_EQ(data.taxonomy.height(), 3);
  EXPECT_EQ(data.taxonomy.Level1().size(), 2u);
  EXPECT_EQ(data.taxonomy.Leaves().size(), 8u);
  EXPECT_EQ(data.db.size(), 10u);
}

// Example 3's correlation chain for {a11, b11}:
//   level 3: Kulc = 1.0, level 2: Kulc = 1/3, level 1: Kulc ~ 0.826.
TEST(ToyExample, KulcChainValues) {
  Dataset data = PaperToyDataset();
  auto id = [&](const char* name) { return *data.dict.Find(name); };

  // Level 3.
  const Itemset leaf = Itemset::Pair(id("a11"), id("b11"));
  EXPECT_EQ(data.db.CountSupport(leaf), 2u);
  EXPECT_DOUBLE_EQ(Correlation2(MeasureKind::kKulczynski, 2, 2, 2), 1.0);

  // Level 2: generalized supports.
  const std::vector<ItemId> lut2 = data.taxonomy.LevelMap(2);
  TransactionDb db2 = data.db.Generalize(lut2);
  const Itemset mid = Itemset::Pair(id("a1"), id("b1"));
  EXPECT_EQ(db2.CountSupport(mid), 2u);
  EXPECT_EQ(db2.CountSupport(Itemset::Single(id("a1"))), 6u);
  EXPECT_EQ(db2.CountSupport(Itemset::Single(id("b1"))), 6u);
  EXPECT_NEAR(Correlation2(MeasureKind::kKulczynski, 2, 6, 6), 1.0 / 3.0,
              1e-12);

  // Level 1.
  const std::vector<ItemId> lut1 = data.taxonomy.LevelMap(1);
  TransactionDb db1 = data.db.Generalize(lut1);
  const Itemset top = Itemset::Pair(id("a"), id("b"));
  EXPECT_EQ(db1.CountSupport(top), 7u);
  EXPECT_EQ(db1.CountSupport(Itemset::Single(id("a"))), 8u);
  EXPECT_EQ(db1.CountSupport(Itemset::Single(id("b"))), 9u);
  EXPECT_NEAR(Correlation2(MeasureKind::kKulczynski, 7, 8, 9),
              (7.0 / 8.0 + 7.0 / 9.0) / 2.0, 1e-12);
}

// Figure 5: {a11, b11} is the only flipping pattern, with labels
// POS (level 1) / NEG (level 2) / POS (level 3).
TEST(ToyExample, FlipperFindsExactlyTheFigure5Pattern) {
  Dataset data = PaperToyDataset();
  auto result = FlipperMiner::Run(data.db, data.taxonomy, ToyConfig());
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_EQ(result->patterns.size(), 1u);
  const FlippingPattern& p = result->patterns[0];
  EXPECT_EQ(data.dict.Render(p.leaf_itemset), "{a11, b11}");
  ASSERT_EQ(p.chain.size(), 3u);
  EXPECT_EQ(p.chain[0].label, Label::kPositive);
  EXPECT_EQ(p.chain[1].label, Label::kNegative);
  EXPECT_EQ(p.chain[2].label, Label::kPositive);
  EXPECT_TRUE(p.IsValidFlip());
  EXPECT_EQ(data.dict.Render(p.chain[0].itemset), "{a, b}");
  EXPECT_EQ(data.dict.Render(p.chain[1].itemset), "{a1, b1}");
  EXPECT_EQ(p.chain[0].support, 7u);
  EXPECT_EQ(p.chain[1].support, 2u);
  EXPECT_EQ(p.chain[2].support, 2u);
}

TEST(ToyExample, NaiveAgreesWithFlipper) {
  Dataset data = PaperToyDataset();
  auto naive = NaiveMiner::Run(data.db, data.taxonomy, ToyConfig());
  ASSERT_TRUE(naive.ok()) << naive.status();
  auto flip = FlipperMiner::Run(data.db, data.taxonomy, ToyConfig());
  ASSERT_TRUE(flip.ok()) << flip.status();
  EXPECT_TRUE(SamePatterns(naive->patterns, flip->patterns));
  ASSERT_EQ(naive->patterns.size(), 1u);
}

TEST(ToyExample, AllPruningConfigsAgree) {
  Dataset data = PaperToyDataset();
  MiningConfig config = ToyConfig();
  auto reference = NaiveMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(reference.ok());
  for (PruningOptions pruning :
       {PruningOptions::Basic(), PruningOptions::FlippingOnly(),
        PruningOptions::FlippingTpg(), PruningOptions::Full()}) {
    config.pruning = pruning;
    auto result = FlipperMiner::Run(data.db, data.taxonomy, config);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(SamePatterns(reference->patterns, result->patterns))
        << "pruning=" << pruning.ToString();
  }
}

// Raising gamma above 1.0's reach or tightening epsilon kills the
// pattern: threshold sensitivity sanity.
TEST(ToyExample, ThresholdSensitivity) {
  Dataset data = PaperToyDataset();
  MiningConfig config = ToyConfig();
  config.epsilon = 0.2;  // level-2 Kulc = 1/3 no longer negative
  auto result = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->patterns.empty());

  config = ToyConfig();
  config.gamma = 0.9;  // level-1 Kulc ~ 0.826 no longer positive
  result = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->patterns.empty());
}

}  // namespace
}  // namespace flipper
