// Candidate generation: pair enumeration, the Apriori prefix join with
// subset pruning, vertical expansion (with shallow-leaf self-copies)
// and the known-infrequent subset filter; and the columnar Cell:
// itemset order and lookups, compaction with parent links, chains
// walked through retired rows, and memory accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/cancellation.h"
#include "core/candidate_gen.h"
#include "core/cell.h"
#include "core/cell_evaluator.h"
#include "core/cell_planner.h"
#include "core/flipper_miner.h"
#include "core/level_views.h"
#include "core/naive_miner.h"
#include "core/scan_counter.h"
#include "test_util.h"

namespace flipper {
namespace {

/// A cell of `rows` (ascending, all one size), each with `flags` and
/// no parent.
Cell MakeCell(std::initializer_list<std::pair<Itemset, uint8_t>> rows,
              MemoryTracker* tracker = nullptr) {
  Cell cell(rows.begin()->first.size(), tracker);
  cell.Resize(rows.size());
  size_t row = 0;
  for (const auto& [itemset, flags] : rows) {
    cell.Set(row++, itemset, 10, 0.5, Label::kNone, flags, Cell::kNoRow);
  }
  return cell;
}

/// Row-1 Apriori generation from the complete cell `prev`, as the
/// planner runs it (it reads nothing else for k >= 3).
CellPlan PlanRow1(const Cell& prev, uint64_t max_candidates = 1000) {
  const Taxonomy taxonomy;
  const LevelViews views;
  const std::vector<std::vector<ItemId>> freq_items;
  MiningConfig config;
  config.max_candidates_per_cell = max_candidates;
  const CellPlanner planner(taxonomy, config, views, freq_items);
  return planner.PlanRow1(prev.k() + 1, &prev);
}

constexpr uint8_t kFrequent = Cell::kFrequent;
constexpr uint8_t kInfrequent = 0;

/// The usable-item bitmap over `taxonomy`'s ids admitting `keep`.
template <typename Keep>
std::vector<uint8_t> Usable(const Taxonomy& taxonomy, const Keep& keep) {
  std::vector<uint8_t> usable(taxonomy.id_space(), 0);
  for (size_t id = 0; id < usable.size(); ++id) {
    usable[id] = keep(static_cast<ItemId>(id)) ? 1 : 0;
  }
  return usable;
}

/// VerticalExpand(parent), checking that ChildCombinations predicts
/// how many candidates it yields.
std::vector<Itemset> Expand(const Itemset& parent, const Taxonomy& taxonomy,
                            int h, const std::vector<uint8_t>& usable) {
  std::vector<Itemset> out;
  VerticalExpand({parent.begin(), parent.end()}, taxonomy, h, usable, &out);
  EXPECT_EQ(static_cast<double>(out.size()),
            ChildCombinations({parent.begin(), parent.end()}, taxonomy, h,
                              usable));
  return out;
}

TEST(CandidateGen, GeneratePairs) {
  const ItemId items[] = {1, 4, 9};
  auto pairs = GeneratePairs(items);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (Itemset{1, 4}));
  EXPECT_EQ(pairs[1], (Itemset{1, 9}));
  EXPECT_EQ(pairs[2], (Itemset{4, 9}));
  EXPECT_TRUE(GeneratePairs(std::span<const ItemId>{}).empty());
}

TEST(CandidateGen, AprioriJoinWithSubsetPruning) {
  // Frequent pairs {1,2}, {1,3}, {1,4}, {2,3}; {2,4},{3,4} absent.
  const Cell prev = MakeCell({{Itemset{1, 2}, kFrequent},
                              {Itemset{1, 3}, kFrequent},
                              {Itemset{1, 4}, kFrequent},
                              {Itemset{2, 3}, kFrequent}});
  auto candidates = PlanRow1(prev).candidates;
  // {1,2}+{1,3} -> {1,2,3}: subset {2,3} frequent -> kept.
  // {1,2}+{1,4} -> {1,2,4}: subset {2,4} missing -> pruned.
  // {1,3}+{1,4} -> {1,3,4}: subset {3,4} missing -> pruned.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (Itemset{1, 2, 3}));
}

TEST(CandidateGen, AprioriJoinTreatsInfrequentAsAbsent) {
  const Cell prev = MakeCell({{Itemset{1, 2}, kFrequent},
                              {Itemset{1, 3}, kFrequent},
                              // counted but infrequent
                              {Itemset{2, 3}, kInfrequent}});
  EXPECT_TRUE(PlanRow1(prev).candidates.empty());
}

TEST(CandidateGen, AprioriJoinSkipsInfrequentOperandsAndTruncates) {
  // {1,3} sits between the two frequent {1,*} rows but joins nothing.
  const Cell prev = MakeCell({{Itemset{1, 2}, kFrequent},
                              {Itemset{1, 3}, kInfrequent},
                              {Itemset{1, 4}, kFrequent},
                              {Itemset{2, 4}, kFrequent},
                              {Itemset{3, 5}, kFrequent},
                              {Itemset{3, 6}, kFrequent},
                              {Itemset{5, 6}, kFrequent}});
  const CellPlan plan = PlanRow1(prev);
  EXPECT_EQ(plan.candidates,
            (std::vector<Itemset>{Itemset{1, 2, 4}, Itemset{3, 5, 6}}));
  EXPECT_FALSE(plan.truncated);
  const CellPlan capped = PlanRow1(prev, 1);
  EXPECT_EQ(capped.candidates, (std::vector<Itemset>{Itemset{1, 2, 4}}));
  EXPECT_TRUE(capped.truncated);
}

TEST(CandidateGen, VerticalExpandCartesianProduct) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const ItemId a = *data.dict.Find("a");
  const ItemId b = *data.dict.Find("b");
  const auto all = Usable(data.taxonomy, [](ItemId) { return true; });
  const auto out = Expand(Itemset::Pair(a, b), data.taxonomy, 2, all);
  // a has children {a1, a2}, b has {b1, b2}: 4 combinations.
  EXPECT_EQ(out.size(), 4u);
  for (const Itemset& s : out) EXPECT_EQ(s.size(), 2);
}

TEST(CandidateGen, VerticalExpandHonorsChildFilter) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const ItemId a = *data.dict.Find("a");
  const ItemId b = *data.dict.Find("b");
  const ItemId a1 = *data.dict.Find("a1");
  const auto no_a1 =
      Usable(data.taxonomy, [&](ItemId child) { return child != a1; });
  EXPECT_EQ(Expand(Itemset::Pair(a, b), data.taxonomy, 2, no_a1).size(),
            2u);  // {a2} x {b1, b2}
  // A filter rejecting everything on one side yields nothing.
  const auto no_a_children = Usable(data.taxonomy, [&](ItemId child) {
    return data.taxonomy.ParentOf(child) != a;
  });
  EXPECT_TRUE(
      Expand(Itemset::Pair(a, b), data.taxonomy, 2, no_a_children).empty());
}

TEST(CandidateGen, VerticalExpandShallowLeafSelfCopy) {
  // Taxonomy: root 0 with children {2, 3}; root 1 is a shallow leaf.
  TaxonomyBuilder builder;
  builder.AddRoot(0);
  builder.AddRoot(1);
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  ASSERT_TRUE(builder.AddEdge(0, 3).ok());
  auto tax = builder.Build();
  ASSERT_TRUE(tax.ok());
  const auto out = Expand(Itemset::Pair(0, 1), *tax, 2,
                          Usable(*tax, [](ItemId) { return true; }));
  // {2,1} and {3,1}: the shallow leaf 1 represents itself at level 2.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Itemset{1, 2}));
  EXPECT_EQ(out[1], (Itemset{1, 3}));
}

/// The rows >= 2 subset filter: RetainCandidates over the
/// known-infrequent subset test.
std::vector<Itemset> SubsetFilter(
    std::vector<Itemset> candidates, const Cell& prev,
    const CancelToken* cancel = nullptr) {
  RetainCandidates(&candidates, nullptr, cancel,
                   [&](const Itemset& candidate) {
                     return !HasKnownInfrequentSubset(candidate, prev);
                   });
  return candidates;
}

TEST(CandidateGen, KnownInfrequentSubsetFilter) {
  const Cell prev = MakeCell({{Itemset{1, 2}, kFrequent},
                              // known infrequent
                              {Itemset{2, 3}, kInfrequent}});
  // {1,2,3} has known-infrequent subset {2,3} -> dropped.
  // {1,2,4} has unknown subsets {1,4}, {2,4} -> kept.
  EXPECT_TRUE(HasKnownInfrequentSubset(Itemset{1, 2, 3}, prev));
  EXPECT_FALSE(HasKnownInfrequentSubset(Itemset{1, 2, 4}, prev));
  std::vector<Itemset> candidates = {Itemset{1, 2, 3}, Itemset{1, 2, 4}};
  auto filtered = SubsetFilter(std::move(candidates), prev);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0], (Itemset{1, 2, 4}));
}

TEST(CandidateGen, SubsetFilterStopsOnFiredToken) {
  const Cell prev = MakeCell({{Itemset{2, 3}, kInfrequent}});
  std::vector<Itemset> candidates(3000, Itemset{1, 2, 4});
  CancelToken unfired;
  EXPECT_EQ(SubsetFilter(candidates, prev, &unfired).size(), 3000u);
  // A fired token stops the filter before it keeps anything: the
  // partial output is never a complete pass.
  CancelToken fired;
  fired.Cancel();
  EXPECT_TRUE(SubsetFilter(candidates, prev, &fired).empty());
}

TEST(CandidateGen, RetainCandidatesCompactsSupportsInStep) {
  const Cell prev = MakeCell({{Itemset{2, 3}, kInfrequent}});
  std::vector<Itemset> candidates = {Itemset{1, 2, 3}, Itemset{1, 2, 4},
                                     Itemset{2, 3, 4}, Itemset{1, 4, 5}};
  std::vector<uint32_t> supports = {7, 8, 9, 10};
  RetainCandidates(&candidates, &supports, nullptr,
                   [&](const Itemset& c) {
                     return c.front() == 1 &&
                            !HasKnownInfrequentSubset(c, prev);
                   });
  EXPECT_EQ(candidates, (std::vector<Itemset>{Itemset{1, 2, 4},
                                              Itemset{1, 4, 5}}));
  EXPECT_EQ(supports, (std::vector<uint32_t>{8, 10}));

  CancelToken fired;
  fired.Cancel();
  RetainCandidates(&candidates, &supports, &fired,
                   [](const Itemset&) { return true; });
  EXPECT_TRUE(candidates.empty());
  EXPECT_TRUE(supports.empty());
}

TEST(Cell, EvaluateStoresRowsInItemsetOrderAndFindsThem) {
  // A one-level taxonomy whose ids span several 11-bit radix digits,
  // and 20 transactions that each hold every item.
  const std::vector<ItemId> ids = {3, 9, 2047, 2048, 4095, 70001, 70002};
  TaxonomyBuilder builder;
  for (ItemId id : ids) builder.AddRoot(id);
  auto taxonomy = builder.Build();
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
  TransactionDb db;
  for (int t = 0; t < 20; ++t) db.Add(ids);
  auto views = LevelViews::Build(db, *taxonomy);
  ASSERT_TRUE(views.ok()) << views.status();
  MiningConfig config;
  config.min_support = {0.5};
  const std::vector<std::vector<ItemId>> freq_items = {{}, ids};
  CellEvaluator evaluator(*taxonomy, config, *views, nullptr, freq_items,
                          views->num_transactions());

  std::mt19937 rng(7);
  for (int k : {2, 3, 4}) {
    SCOPED_TRACE(k);
    std::vector<Itemset> candidates;
    Itemset scratch;
    ForEachCombination(ids, k, &scratch, [&](const Itemset& combo) {
      candidates.push_back(combo);
    });
    std::shuffle(candidates.begin(), candidates.end(), rng);
    std::vector<uint32_t> supports(candidates.size());
    for (size_t i = 0; i < supports.size(); ++i) {
      supports[i] = 1 + static_cast<uint32_t>(i % 20);
    }
    CellStats cs;
    MiningStats stats;
    const Cell cell = evaluator.Evaluate(1, k, candidates, supports, {},
                                         nullptr, &cs, &stats);
    ASSERT_EQ(cell.size(), candidates.size());
    for (size_t row = 1; row < cell.size(); ++row) {
      EXPECT_LT(cell.itemset(row - 1), cell.itemset(row));
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      const uint32_t row = cell.Find(candidates[i]);
      ASSERT_NE(row, Cell::kNoRow) << candidates[i].ToString();
      EXPECT_EQ(cell.itemset(row), candidates[i]);
      EXPECT_EQ(cell.support(row), supports[i]);
      EXPECT_EQ(cell.has(row, Cell::kFrequent), supports[i] >= 10u);
    }
    // Misses below, between and above the stored ids, and a size the
    // cell does not hold.
    const Itemset prefix = cell.itemset(0).WithoutIndex(k - 1);
    for (ItemId absent : {ItemId{1}, ItemId{5}, ItemId{2049}, ItemId{90000}}) {
      Itemset miss = prefix;
      miss.Insert(absent);
      EXPECT_EQ(cell.Find(miss), Cell::kNoRow) << miss.ToString();
    }
    EXPECT_EQ(cell.Find(prefix), Cell::kNoRow);
  }
  EXPECT_EQ(Cell(2, nullptr).Find(Itemset{3, 9}), Cell::kNoRow);
}

TEST(Cell, RetainMovesChildParentLinksWithTheKeptRows) {
  // Parent rows {r, 50}, r = 0..5; rows 1, 2 and 4 are chain-alive.
  Cell parent(2, nullptr);
  parent.Resize(6);
  auto alive = [](uint32_t r) { return r == 1 || r == 2 || r == 4; };
  for (uint32_t r = 0; r < 6; ++r) {
    parent.Set(r, Itemset{r, 50}, 10 + r, 0.1 * r, Label::kPositive,
               Cell::kFrequent | (alive(r) ? Cell::kChainAlive : 0),
               Cell::kNoRow);
  }
  // Child row c links to parent row 5 - c; child row 6 has no parent.
  Cell child(2, nullptr);
  child.Resize(7);
  for (uint32_t c = 0; c < 7; ++c) {
    child.Set(c, Itemset{100 + c, 200}, 1, 0.0, Label::kNegative,
              Cell::kFrequent, c < 6 ? 5 - c : Cell::kNoRow);
  }
  EXPECT_EQ(parent.Retain(Cell::kChainAlive, &child), 3u);
  ASSERT_EQ(parent.size(), 3u);
  for (uint32_t c = 0; c < 6; ++c) {
    const uint32_t was = 5 - c;
    if (!alive(was)) {
      EXPECT_EQ(child.parent(c), Cell::kNoRow) << c;
      continue;
    }
    const uint32_t now = child.parent(c);
    ASSERT_NE(now, Cell::kNoRow) << c;
    EXPECT_EQ(parent.itemset(now), (Itemset{was, 50}));
    EXPECT_EQ(parent.support(now), 10 + was);
  }
  EXPECT_EQ(child.parent(6), Cell::kNoRow);
  // Retaining every row leaves the links where they were.
  EXPECT_EQ(parent.Retain(Cell::kFrequent, &child), 0u);
  EXPECT_EQ(parent.itemset(child.parent(1)), (Itemset{4, 50}));
}

TEST(Cell, ChainsThroughTwoRetiredRowsMatchTheOracle) {
  // The paper's toy example has 3 levels: its pattern's leaf row links
  // up through rows 2 and 1, both retired by then. Basic pruning evicts
  // to the frequent rows, so its retirement also moves links.
  const testutil::Dataset data = testutil::PaperToyDataset();
  ASSERT_EQ(data.taxonomy.height(), 3);
  MiningConfig config;
  config.gamma = 0.6;
  config.epsilon = 0.35;
  config.min_support = {0.1};
  auto oracle = NaiveMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->patterns.size(), 1u);
  for (PruningOptions pruning :
       {PruningOptions::Basic(), PruningOptions::Full()}) {
    SCOPED_TRACE(pruning.ToString());
    config.pruning = pruning;
    auto mined = FlipperMiner::Run(data.db, data.taxonomy, config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    ASSERT_EQ(mined->patterns.size(), 1u);
    const FlippingPattern& got = mined->patterns[0];
    const FlippingPattern& want = oracle->patterns[0];
    EXPECT_EQ(got.leaf_itemset, want.leaf_itemset);
    ASSERT_EQ(got.chain.size(), 3u);
    ASSERT_EQ(want.chain.size(), 3u);
    for (size_t h = 0; h < 3; ++h) {
      EXPECT_EQ(got.chain[h].level, want.chain[h].level);
      EXPECT_EQ(got.chain[h].itemset, want.chain[h].itemset);
      EXPECT_EQ(got.chain[h].support, want.chain[h].support);
      EXPECT_EQ(got.chain[h].corr, want.chain[h].corr);
      EXPECT_EQ(got.chain[h].label, want.chain[h].label);
    }
  }
}

TEST(Cell, TracksColumnBytesThroughRetainAndRelease) {
  // A row holds k items and one support, corr, label, flags and parent.
  EXPECT_EQ(Cell::BytesPerRow(3), 3 * 4 + 4 + 8 + 1 + 1 + 4);
  MemoryTracker tracker;
  {
    Cell cell = MakeCell({{Itemset{1, 2}, kFrequent},
                          {Itemset{1, 3}, kInfrequent},
                          {Itemset{2, 3}, kFrequent}},
                         &tracker);
    EXPECT_EQ(tracker.live_bytes(), 3 * Cell::BytesPerRow(2));
    EXPECT_EQ(cell.Retain(Cell::kFrequent, nullptr), 1u);
    EXPECT_EQ(tracker.live_bytes(), 2 * Cell::BytesPerRow(2));
    EXPECT_EQ(cell.itemset(1), (Itemset{2, 3}));
    // A move hands the tracked bytes over once.
    Cell moved = std::move(cell);
    EXPECT_EQ(tracker.live_bytes(), 2 * Cell::BytesPerRow(2));
    moved.Release();
    EXPECT_TRUE(moved.empty());
    EXPECT_EQ(tracker.live_bytes(), 0);
  }
  EXPECT_EQ(tracker.live_bytes(), 0);
  EXPECT_EQ(tracker.peak_bytes(), 3 * Cell::BytesPerRow(2));
}

TEST(Cell, AllNonPositive) {
  Cell cell(2, nullptr);
  EXPECT_TRUE(cell.AllNonPositive());  // vacuous
  cell.Resize(2);
  cell.Set(0, Itemset{1, 2}, 10, 0.05, Label::kNegative, Cell::kFrequent,
           Cell::kNoRow);
  cell.Set(1, Itemset{1, 3}, 10, 0.2, Label::kNone, Cell::kFrequent,
           Cell::kNoRow);
  EXPECT_TRUE(cell.AllNonPositive());
  cell.Set(1, Itemset{1, 3}, 10, 0.9, Label::kPositive, Cell::kFrequent,
           Cell::kNoRow);
  EXPECT_FALSE(cell.AllNonPositive());
}

}  // namespace
}  // namespace flipper
