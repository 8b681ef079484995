// CandidateTrie and its probe kernels: the trie must count exactly
// like brute force, including adversarial shapes — k = 1, a single
// candidate, transactions shorter than k, duplicate-free max-width
// transactions. Plus: probe-kernel agreement with std::lower_bound,
// exact memory accounting, and Build() arena reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/candidate_trie.h"
#include "data/transaction_db.h"
#include "test_util.h"

namespace flipper {
namespace {

/// Counts `db` through the trie and compares every candidate's
/// support against the brute-force scan.
void ExpectCountsMatchBruteForce(const TransactionDb& db,
                                 const std::vector<Itemset>& candidates) {
  const CandidateTrie trie(candidates);
  std::vector<uint32_t> counts(candidates.size(), 0);
  for (TxnId t = 0; t < db.size(); ++t) {
    trie.CountTransaction(db.Get(t), counts);
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(counts[i], db.CountSupport(candidates[i]))
        << "diverged on " << candidates[i].ToString();
  }
}

class TrieProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrieProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    TransactionDb db;
    std::vector<ItemId> txn;
    const ItemId alphabet = 700 + static_cast<ItemId>(rng.Below(600));
    for (int t = 0; t < 250; ++t) {
      txn.clear();
      const int width = 1 + static_cast<int>(rng.Below(11));
      for (int i = 0; i < width; ++i) {
        txn.push_back(static_cast<ItemId>(rng.Below(alphabet)));
      }
      db.Add(txn);
    }
    const int k = 1 + static_cast<int>(rng.Below(5));
    std::vector<Itemset> candidates;
    std::unordered_set<Itemset, ItemsetHash> seen;
    for (int c = 0; c < 80; ++c) {
      Itemset s;
      while (s.size() < k) {
        // Half the candidates cluster on a narrow band, so many
        // transactions miss every candidate.
        const ItemId item =
            c % 2 == 0 ? static_cast<ItemId>(rng.Below(alphabet))
                       : static_cast<ItemId>(rng.Below(64));
        s.Insert(item);
      }
      if (seen.insert(s).second) candidates.push_back(s);
    }
    ExpectCountsMatchBruteForce(db, candidates);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProperty,
                         ::testing::Values(11, 22, 33));

TEST(CandidateTrie, EmptyCandidates) {
  CandidateTrie trie(std::span<const Itemset>{});
  EXPECT_EQ(trie.num_candidates(), 0u);
  EXPECT_EQ(trie.num_nodes(), 0u);
  const ItemId txn[] = {1, 2, 3};
  trie.CountTransaction(txn);  // must not crash
}

TEST(CandidateTrie, SingleItemCandidates) {
  // k = 1: the root layer doubles as the leaf layer.
  std::vector<Itemset> candidates = {Itemset{3}, Itemset{1},
                                     Itemset{600}};
  const ItemId txn[] = {1, 2, 3, 600};
  const ItemId missing[] = {0, 2, 4};
  CandidateTrie trie(candidates);
  EXPECT_EQ(trie.k(), 1);
  EXPECT_EQ(trie.num_nodes(), 3u);
  trie.CountTransaction(txn);
  trie.CountTransaction(missing);
  EXPECT_EQ(trie.CountOf(0), 1u);
  EXPECT_EQ(trie.CountOf(1), 1u);
  EXPECT_EQ(trie.CountOf(2), 1u);
}

TEST(CandidateTrie, SingleCandidateAndShortTransactions) {
  std::vector<Itemset> candidates = {Itemset{4, 9, 17}};
  CandidateTrie trie(candidates);
  const ItemId shorter[] = {4, 9};     // txn.size() < k
  const ItemId exact[] = {4, 9, 17};   // the candidate itself
  const ItemId super[] = {1, 4, 9, 12, 17, 30};
  const ItemId wrong[] = {4, 9, 18};
  trie.CountTransaction(shorter);
  EXPECT_EQ(trie.CountOf(0), 0u);
  trie.CountTransaction(exact);
  trie.CountTransaction(super);
  trie.CountTransaction(wrong);
  EXPECT_EQ(trie.CountOf(0), 2u);
}

TEST(CandidateTrie, MaxWidthDuplicateFreeTransactions) {
  // Candidates at the arity cap counted inside wide, duplicate-free
  // transactions (every item distinct, k = kMaxItemsetSize).
  Itemset full;
  for (int i = 0; i < kMaxItemsetSize; ++i) {
    full.PushBack(static_cast<ItemId>(i * 7));
  }
  std::vector<Itemset> candidates = {full, full.WithoutIndex(0)
                                               .WithItem(1000)};
  std::vector<ItemId> wide;
  for (ItemId item = 0; item < 1200; ++item) wide.push_back(item);
  // `wide` contains every multiple of 7 below 1200 plus 1000, so it
  // covers both candidates.
  CandidateTrie trie(candidates);
  trie.CountTransaction(wide);
  EXPECT_EQ(trie.CountOf(0), 1u);
  EXPECT_EQ(trie.CountOf(1), 1u);
}

TEST(CandidateTrie, MemoryAccountingIsExact) {
  Rng rng(77);
  std::vector<Itemset> candidates;
  std::unordered_set<Itemset, ItemsetHash> seen;
  while (candidates.size() < 200) {
    Itemset s;
    while (s.size() < 3) {
      s.Insert(static_cast<ItemId>(rng.Below(60)));
    }
    if (seen.insert(s).second) candidates.push_back(s);
  }

  const CandidateTrie trie(candidates);
  const auto nodes = static_cast<int64_t>(trie.num_nodes());
  const auto leaves = static_cast<int64_t>(candidates.size());
  const auto internal = nodes - leaves;
  const int64_t counters = leaves * static_cast<int64_t>(sizeof(uint32_t));

  // Items column (4B/node) + child ranges (8B/internal) + leaf
  // indexes (4B/leaf) + k+1 layer offsets + counters. Exact — the
  // builder sizes every column precisely.
  EXPECT_EQ(trie.MemoryBytes(),
            counters + nodes * 4 + internal * 8 + leaves * 4 + (3 + 1) * 4);
}

TEST(CandidateTrie, BuildReusesArenaAndStaysCorrect) {
  Rng rng(99);
  CandidateTrie reused;  // rebuilt in place across "cells"
  for (int round = 0; round < 6; ++round) {
    const int k = 1 + round % 4;
    std::vector<Itemset> candidates;
    std::unordered_set<Itemset, ItemsetHash> seen;
    // Stay well below C(50, k) so the distinct-candidate collection
    // loop always terminates (50 possible singletons at k = 1).
    const size_t want = k == 1 ? 35 : 150 - static_cast<size_t>(round) * 20;
    while (candidates.size() < want) {
      Itemset s;
      while (s.size() < k) {
        s.Insert(static_cast<ItemId>(rng.Below(50)));
      }
      if (seen.insert(s).second) candidates.push_back(s);
    }
    TransactionDb db;
    std::vector<ItemId> txn;
    for (int t = 0; t < 120; ++t) {
      txn.clear();
      for (int i = 0; i < 8; ++i) {
        txn.push_back(static_cast<ItemId>(rng.Below(50)));
      }
      db.Add(txn);
    }

    reused.Build(candidates);
    const CandidateTrie fresh(candidates);
    std::vector<uint32_t> reused_counts(candidates.size(), 0);
    std::vector<uint32_t> fresh_counts(candidates.size(), 0);
    for (TxnId t = 0; t < db.size(); ++t) {
      reused.CountTransaction(db.Get(t), reused_counts);
      fresh.CountTransaction(db.Get(t), fresh_counts);
    }
    EXPECT_EQ(reused_counts, fresh_counts) << "round " << round;
    // Rebuilding keeps capacity, so accounting never shrinks below
    // the fresh trie's exact footprint.
    EXPECT_GE(reused.MemoryBytes(), fresh.MemoryBytes());
  }
}

TEST(ProbeKernels, AgreeWithStdLowerBound) {
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Below(300));
    std::vector<ItemId> items(n);
    ItemId next = static_cast<ItemId>(rng.Below(16));
    for (auto& item : items) {
      next += static_cast<ItemId>(rng.Below(6));  // dups allowed
      item = next;
    }
    const auto lo = static_cast<uint32_t>(rng.Below(n));
    const ItemId target = static_cast<ItemId>(rng.Below(next + 10));
    const auto expected = static_cast<uint32_t>(
        std::lower_bound(items.begin() + lo, items.end(), target) -
        items.begin());
    EXPECT_EQ(trie_probe::LowerBoundScalar(items.data(), lo, n, target),
              expected);
    EXPECT_EQ(trie_probe::LowerBoundPackedPortable(items.data(), lo, n,
                                                   target),
              expected);
    EXPECT_EQ(trie_probe::LowerBoundPacked(items.data(), lo, n, target),
              expected);
    EXPECT_EQ(trie_probe::LowerBoundGallop(items.data(), lo, n, target),
              expected);
  }
  EXPECT_NE(trie_probe::PackedKernelName(), nullptr);
}

TEST(ProbeKernels, LargeIdsUseUnsignedOrdering) {
  // Ids above 2^31 would invert under a naive signed SIMD compare;
  // the kernels bias them back to unsigned order.
  std::vector<ItemId> items = {1,          5,          100,
                               0x7fffffff, 0x80000001, 0xfffffffe};
  const auto n = static_cast<uint32_t>(items.size());
  for (const ItemId target :
       {ItemId{0}, ItemId{6}, ItemId{0x7fffffff}, ItemId{0x80000000},
        ItemId{0xfffffffe}, ItemId{0xffffffff}}) {
    const auto expected = static_cast<uint32_t>(
        std::lower_bound(items.begin(), items.end(), target) -
        items.begin());
    EXPECT_EQ(trie_probe::LowerBoundScalar(items.data(), 0, n, target),
              expected);
    EXPECT_EQ(trie_probe::LowerBoundPackedPortable(items.data(), 0, n,
                                                   target),
              expected);
    EXPECT_EQ(trie_probe::LowerBoundPacked(items.data(), 0, n, target),
              expected)
        << "target " << target;
    EXPECT_EQ(trie_probe::LowerBoundGallop(items.data(), 0, n, target),
              expected);
  }
}

TEST(ProbeKernels, DispatchAgreementOnAdversarialShapes) {
  // Every kernel the host can run — whatever cpuid dispatch would pick
  // plus every forcible fallback — must agree with std::lower_bound on
  // the shapes that break SIMD lower bounds: empty ranges, runs of
  // equal ids, lengths straddling the 4/8-lane vector widths, targets
  // outside the id range, and ids crossing the 2^31 sign boundary.
  const std::vector<const char*> kernels =
      trie_probe::AvailableKernelNames();
  ASSERT_FALSE(kernels.empty());
  struct Shape {
    const char* tag;
    std::vector<ItemId> items;
  };
  std::vector<Shape> shapes = {
      {"single", {7}},
      {"all_equal", {5, 5, 5, 5, 5, 5, 5, 5, 5}},
      {"sign_boundary",
       {1, 2, 0x7ffffffe, 0x7fffffff, 0x80000000, 0x80000001,
        0xfffffffe, 0xffffffff}},
  };
  // Lengths around the SSE (4-lane) and AVX2 (8-lane) widths, with
  // duplicate runs mixed in.
  Rng rng(321);
  for (const uint32_t n : {2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                           31u, 33u, 64u, 100u}) {
    Shape shape;
    shape.tag = "len";
    ItemId next = static_cast<ItemId>(rng.Below(4));
    for (uint32_t i = 0; i < n; ++i) {
      shape.items.push_back(next);
      next += static_cast<ItemId>(rng.Below(3));  // frequent dups
    }
    shapes.push_back(std::move(shape));
  }
  for (const Shape& shape : shapes) {
    const auto n = static_cast<uint32_t>(shape.items.size());
    std::vector<ItemId> targets = {0, shape.items.front(),
                                   shape.items.back(), 0xffffffff};
    for (int i = 0; i < 32; ++i) {
      targets.push_back(static_cast<ItemId>(
          rng.Below(static_cast<uint64_t>(shape.items.back()) + 3)));
    }
    for (uint32_t lo = 0; lo <= n; ++lo) {
      for (const ItemId target : targets) {
        const auto expected = static_cast<uint32_t>(
            std::lower_bound(shape.items.begin() + lo,
                             shape.items.end(), target) -
            shape.items.begin());
        for (const char* name : kernels) {
          const trie_probe::ProbeFn fn = trie_probe::KernelByName(name);
          ASSERT_NE(fn, nullptr) << name;
          EXPECT_EQ(fn(shape.items.data(), lo, n, target), expected)
              << shape.tag << " kernel=" << name << " lo=" << lo
              << " target=" << target;
        }
      }
    }
  }
}

TEST(ProbeKernels, ForcePackedKernelPinsAndErrors) {
  // Pinning any available kernel redirects the dispatched entry point
  // and is reported by name; unknown names are InvalidArgument (the
  // env-override path turns the same condition into a hard abort, so
  // a typo can never silently fall back).
  for (const char* name : trie_probe::AvailableKernelNames()) {
    ASSERT_TRUE(trie_probe::ForcePackedKernel(name).ok()) << name;
    EXPECT_STREQ(trie_probe::PackedKernelName(), name);
    EXPECT_EQ(trie_probe::ResolvedPackedKernel(),
              trie_probe::KernelByName(name));
    const ItemId items[] = {2, 4, 6};
    EXPECT_EQ(trie_probe::LowerBoundPacked(items, 0, 3, 5), 2u);
  }
  const Status unknown = trie_probe::ForcePackedKernel("avx512");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.ToString().find("avx512"), std::string::npos);
  EXPECT_EQ(trie_probe::KernelByName("avx512"), nullptr);

  // A host without AVX2 must refuse to force it rather than run an
  // illegal instruction (FailedPrecondition, not a crash).
  const std::vector<const char*> available =
      trie_probe::AvailableKernelNames();
  const bool has_avx2 =
      std::find_if(available.begin(), available.end(), [](const char* n) {
        return std::string_view(n) == "avx2";
      }) != available.end();
  if (!has_avx2) {
    EXPECT_EQ(trie_probe::ForcePackedKernel("avx2").code(),
              StatusCode::kFailedPrecondition);
  }

  trie_probe::ResetPackedKernel();
  // Auto-dispatch resolves to the preferred available kernel again.
  EXPECT_STREQ(trie_probe::PackedKernelName(), available.front());
}

}  // namespace
}  // namespace flipper
