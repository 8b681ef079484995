// Differential property suite: on randomized datasets and threshold
// settings, every Flipper pruning configuration must return exactly
// the flipping patterns that the unconstrained NaiveMiner (per-level
// Apriori + post-processing) finds, while evaluating no more
// candidates than the less-pruned configurations.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/flipper_miner.h"
#include "core/naive_miner.h"
#include "test_util.h"

namespace flipper {
namespace {

using testutil::Dataset;
using testutil::RandomDataset;

struct DiffCase {
  uint64_t seed;
  double gamma;
  double epsilon;
  double theta;  // shared per-level support fraction
};

class FlipperVsNaive : public ::testing::TestWithParam<DiffCase> {};

MiningConfig MakeConfig(const DiffCase& c, int height) {
  MiningConfig config;
  config.gamma = c.gamma;
  config.epsilon = c.epsilon;
  // Non-increasing per-level thresholds ending at c.theta.
  for (int h = 0; h < height; ++h) {
    config.min_support.push_back(c.theta * (height - h));
  }
  return config;
}

TEST_P(FlipperVsNaive, AllConfigsMatchOracle) {
  const DiffCase c = GetParam();
  Dataset data = RandomDataset(c.seed);
  MiningConfig config = MakeConfig(c, data.taxonomy.height());

  auto oracle = NaiveMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  uint64_t prev_counted = ~uint64_t{0};
  for (PruningOptions pruning :
       {PruningOptions::Basic(), PruningOptions::FlippingOnly(),
        PruningOptions::FlippingTpg(), PruningOptions::Full()}) {
    config.pruning = pruning;
    auto result = FlipperMiner::Run(data.db, data.taxonomy, config);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(SamePatterns(oracle->patterns, result->patterns))
        << "pruning=" << pruning.ToString() << " seed=" << c.seed
        << " oracle=" << oracle->patterns.size()
        << " got=" << result->patterns.size();
    // Each additional pruning layer may only shrink the candidate
    // workload.
    EXPECT_LE(result->stats.total_counted, prev_counted)
        << "pruning=" << pruning.ToString() << " seed=" << c.seed;
    prev_counted = result->stats.total_counted;

    // Every reported pattern satisfies the Definition-2 invariants.
    for (const FlippingPattern& p : result->patterns) {
      EXPECT_TRUE(p.IsValidFlip());
      EXPECT_EQ(static_cast<int>(p.chain.size()),
                data.taxonomy.height());
      // Items descend from distinct level-1 roots.
      Itemset roots = p.leaf_itemset.Map(
          [&](ItemId it) { return data.taxonomy.RootOf(it); });
      EXPECT_EQ(roots.size(), p.leaf_itemset.size());
    }
  }
}

std::vector<DiffCase> MakeCases() {
  std::vector<DiffCase> cases;
  uint64_t seed = 1;
  for (double gamma : {0.45, 0.6}) {
    for (double epsilon : {0.15, 0.25}) {
      for (double theta : {0.005, 0.02}) {
        for (int i = 0; i < 4; ++i) {
          cases.push_back({seed++, gamma, epsilon, theta});
        }
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& param) {
  const DiffCase& c = param.param;
  std::string name = "seed";
  name += std::to_string(c.seed);
  name += "_g";
  name += std::to_string(static_cast<int>(c.gamma * 100));
  name += "_e";
  name += std::to_string(static_cast<int>(c.epsilon * 100));
  name += "_t";
  name += std::to_string(static_cast<int>(c.theta * 1000));
  return name;
}

INSTANTIATE_TEST_SUITE_P(Randomized, FlipperVsNaive,
                         ::testing::ValuesIn(MakeCases()), CaseName);

}  // namespace
}  // namespace flipper
