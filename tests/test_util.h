// Shared fixtures: the paper's Figure-4 toy dataset, randomized
// dataset construction for differential tests, and a quest profile
// that drives cells into the scan-driven route.

#ifndef FLIPPER_TESTS_TEST_UTIL_H_
#define FLIPPER_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/config.h"
#include "data/item_dictionary.h"
#include "data/transaction_db.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/taxonomy_builder.h"

namespace flipper {
namespace testutil {

struct Dataset {
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
};

/// The toy example of the paper's Figure 4: 8 leaf items in two
/// 3-level branches and 10 transactions. With gamma = 0.6 and
/// epsilon = 0.35 the only flipping pattern is {a11, b11} (Figure 5).
inline Dataset PaperToyDataset() {
  Dataset out;
  TaxonomyBuilder builder;
  auto intern = [&](const char* name) { return out.dict.Intern(name); };
  const ItemId a = intern("a");
  const ItemId b = intern("b");
  builder.AddRoot(a);
  builder.AddRoot(b);
  auto edge = [&](ItemId parent, const char* child) {
    const ItemId id = intern(child);
    FLIPPER_CHECK(builder.AddEdge(parent, id).ok());
    return id;
  };
  const ItemId a1 = edge(a, "a1");
  const ItemId a2 = edge(a, "a2");
  const ItemId b1 = edge(b, "b1");
  const ItemId b2 = edge(b, "b2");
  edge(a1, "a11");
  edge(a1, "a12");
  edge(a2, "a21");
  edge(a2, "a22");
  edge(b1, "b11");
  edge(b1, "b12");
  edge(b2, "b21");
  edge(b2, "b22");
  auto built = builder.Build();
  FLIPPER_CHECK(built.ok()) << built.status();
  out.taxonomy = std::move(built).value();

  auto add = [&](std::initializer_list<const char*> names) {
    std::vector<ItemId> items;
    for (const char* name : names) {
      auto id = out.dict.Find(name);
      FLIPPER_CHECK(id.ok());
      items.push_back(*id);
    }
    out.db.Add(items);
  };
  add({"a11", "a22", "b11", "b22"});  // D1
  add({"a11", "a21", "b11"});         // D2
  add({"a12", "a21"});                // D3
  add({"a12", "a22", "b21"});         // D4
  add({"a12", "a22", "b21"});         // D5
  add({"a12", "a21", "b22"});         // D6
  add({"a21", "b12"});                // D7
  add({"b12", "b21", "b22"});         // D8
  add({"b12", "b21"});                // D9
  add({"a22", "b12", "b22"});         // D10
  return out;
}

/// A random balanced taxonomy plus random transactions over its
/// leaves; used by the differential and property suites.
inline Dataset RandomDataset(uint64_t seed, uint32_t num_roots = 4,
                             uint32_t fanout = 2, uint32_t depth = 3,
                             uint32_t num_txns = 300,
                             uint32_t max_width = 6) {
  Dataset out;
  Rng rng(seed);
  TaxonomyBuilder builder;
  std::vector<ItemId> frontier;
  for (uint32_t r = 0; r < num_roots; ++r) {
    const ItemId id = out.dict.Intern("r" + std::to_string(r));
    builder.AddRoot(id);
    frontier.push_back(id);
  }
  for (uint32_t level = 2; level <= depth; ++level) {
    std::vector<ItemId> next;
    for (ItemId parent : frontier) {
      // Jitter the fanout a little so trees are not perfectly regular;
      // occasionally skip a child to create shallow leaves.
      const uint32_t children =
          fanout + (rng.Bernoulli(0.3) ? 1 : 0) -
          (fanout > 1 && rng.Bernoulli(0.2) ? 1 : 0);
      for (uint32_t c = 0; c < children; ++c) {
        const ItemId id = out.dict.Intern(
            std::string(out.dict.Name(parent)) + "." + std::to_string(c));
        FLIPPER_CHECK(builder.AddEdge(parent, id).ok());
        next.push_back(id);
      }
    }
    if (next.empty()) break;
    frontier = std::move(next);
  }
  auto built = builder.Build();
  FLIPPER_CHECK(built.ok()) << built.status();
  out.taxonomy = std::move(built).value();

  const std::vector<ItemId>& leaves = out.taxonomy.Leaves();
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < num_txns; ++t) {
    txn.clear();
    const uint32_t width =
        1 + static_cast<uint32_t>(rng.Below(max_width));
    for (uint32_t i = 0; i < width; ++i) {
      txn.push_back(leaves[rng.Below(leaves.size())]);
    }
    out.db.Add(txn);
  }
  return out;
}

/// Quest transactions over a balanced 10-root, fanout-5, depth-4
/// taxonomy. Mined with QuestScanConfig, the cartesian children
/// product explodes and the planner sends cells to the scan-driven
/// route.
inline Dataset QuestScanDataset() {
  Dataset out;
  TaxonomyGenParams tax_params;
  tax_params.num_roots = 10;
  tax_params.fanout = 5;
  tax_params.depth = 4;
  auto tax = GenerateBalancedTaxonomy(tax_params, &out.dict);
  FLIPPER_CHECK(tax.ok()) << tax.status();
  out.taxonomy = std::move(tax).value();
  QuestParams quest;
  quest.num_transactions = 4'000;
  quest.avg_width = 5.0;
  quest.num_patterns = 500;
  quest.seed = 42;
  auto db = GenerateQuest(quest, out.taxonomy);
  FLIPPER_CHECK(db.ok()) << db.status();
  out.db = std::move(db).value();
  return out;
}

/// Low supports with FLIPPING-only pruning: the profile the
/// scan-strategy ablation uses.
inline MiningConfig QuestScanConfig() {
  MiningConfig config;
  config.gamma = 0.3;
  config.epsilon = 0.1;
  config.min_support = {0.01, 0.001, 0.0005, 0.0001};
  config.pruning = PruningOptions::FlippingOnly();
  return config;
}

}  // namespace testutil
}  // namespace flipper

#endif  // FLIPPER_TESTS_TEST_UTIL_H_
