// Candidate generation: pair enumeration, the Apriori prefix join with
// subset pruning, vertical expansion (with shallow-leaf self-copies)
// and the known-infrequent subset filter.

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "core/candidate_gen.h"
#include "core/cell.h"
#include "test_util.h"

namespace flipper {
namespace {

ItemsetRecord MakeRecord(bool frequent) {
  ItemsetRecord r;
  r.frequent = frequent;
  r.support = frequent ? 10 : 0;
  return r;
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
  Cell prev(1, 2, nullptr);
  // Frequent pairs {1,2}, {1,3}, {2,3}, {1,4}; {2,4},{3,4} absent.
  for (auto s : {Itemset{1, 2}, Itemset{1, 3}, Itemset{2, 3},
                 Itemset{1, 4}}) {
    prev.Put(s, MakeRecord(true));
  }
  std::vector<Itemset> frequent = prev.Select(
      [](const ItemsetRecord& r) { return r.frequent; });
  auto candidates = AprioriJoin(frequent, prev);
  // {1,2}+{1,3} -> {1,2,3}: subset {2,3} frequent -> kept.
  // {1,2}+{1,4} -> {1,2,4}: subset {2,4} missing -> pruned.
  // {1,3}+{1,4} -> {1,3,4}: subset {3,4} missing -> pruned.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (Itemset{1, 2, 3}));
}

TEST(CandidateGen, AprioriJoinTreatsInfrequentAsAbsent) {
  Cell prev(1, 2, nullptr);
  prev.Put(Itemset{1, 2}, MakeRecord(true));
  prev.Put(Itemset{1, 3}, MakeRecord(true));
  prev.Put(Itemset{2, 3}, MakeRecord(false));  // counted but infrequent
  std::vector<Itemset> frequent = prev.Select(
      [](const ItemsetRecord& r) { return r.frequent; });
  auto candidates = AprioriJoin(frequent, prev);
  EXPECT_TRUE(candidates.empty());
}

TEST(CandidateGen, VerticalExpandCartesianProduct) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const ItemId a = *data.dict.Find("a");
  const ItemId b = *data.dict.Find("b");
  std::vector<Itemset> out;
  VerticalExpand(Itemset::Pair(a, b), data.taxonomy, 2,
                 [](ItemId) { return true; }, &out);
  // a has children {a1, a2}, b has {b1, b2}: 4 combinations.
  EXPECT_EQ(out.size(), 4u);
  for (const Itemset& s : out) EXPECT_EQ(s.size(), 2);
}

TEST(CandidateGen, VerticalExpandHonorsChildFilter) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const ItemId a = *data.dict.Find("a");
  const ItemId b = *data.dict.Find("b");
  const ItemId a1 = *data.dict.Find("a1");
  std::vector<Itemset> out;
  VerticalExpand(Itemset::Pair(a, b), data.taxonomy, 2,
                 [&](ItemId child) { return child != a1; }, &out);
  EXPECT_EQ(out.size(), 2u);  // {a2} x {b1, b2}
  // A filter rejecting everything on one side yields nothing.
  out.clear();
  VerticalExpand(Itemset::Pair(a, b), data.taxonomy, 2,
                 [&](ItemId child) {
                   return data.taxonomy.ParentOf(child) != a;
                 },
                 &out);
  EXPECT_TRUE(out.empty());
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
  std::vector<Itemset> out;
  VerticalExpand(Itemset::Pair(0, 1), *tax, 2,
                 [](ItemId) { return true; }, &out);
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
  Cell prev(2, 2, nullptr);
  prev.Put(Itemset{1, 2}, MakeRecord(true));
  prev.Put(Itemset{2, 3}, MakeRecord(false));  // known infrequent
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
  Cell prev(2, 2, nullptr);
  prev.Put(Itemset{2, 3}, MakeRecord(false));
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
  Cell prev(2, 2, nullptr);
  prev.Put(Itemset{2, 3}, MakeRecord(false));
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

TEST(Cell, MemoryAccountingAndRetain) {
  MemoryTracker tracker;
  {
    Cell cell(1, 2, &tracker);
    cell.Put(Itemset{1, 2}, MakeRecord(true));
    cell.Put(Itemset{1, 3}, MakeRecord(false));
    EXPECT_EQ(tracker.live_bytes(), 2 * Cell::kBytesPerRecord);
    // Overwrite does not double-count.
    cell.Put(Itemset{1, 2}, MakeRecord(true));
    EXPECT_EQ(tracker.live_bytes(), 2 * Cell::kBytesPerRecord);

    EXPECT_EQ(cell.Retain([](const ItemsetRecord& r) {
      return r.frequent;
    }), 1u);
    EXPECT_EQ(tracker.live_bytes(), Cell::kBytesPerRecord);
    EXPECT_EQ(cell.size(), 1u);
  }
  EXPECT_EQ(tracker.live_bytes(), 0);
  EXPECT_EQ(tracker.peak_bytes(), 2 * Cell::kBytesPerRecord);
}

TEST(Cell, AllNonPositive) {
  Cell cell(1, 2, nullptr);
  EXPECT_TRUE(cell.AllNonPositive());  // vacuous
  ItemsetRecord negative = MakeRecord(true);
  negative.label = Label::kNegative;
  cell.Put(Itemset{1, 2}, negative);
  EXPECT_TRUE(cell.AllNonPositive());
  ItemsetRecord positive = MakeRecord(true);
  positive.label = Label::kPositive;
  cell.Put(Itemset{1, 3}, positive);
  EXPECT_FALSE(cell.AllNonPositive());
}

}  // namespace
}  // namespace flipper
