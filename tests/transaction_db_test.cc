// TransactionDb storage and generalization.

#include <gtest/gtest.h>

#include "data/transaction_db.h"
#include "test_util.h"

namespace flipper {
namespace {

TEST(TransactionDb, AddSortsAndDedupes) {
  TransactionDb db;
  db.Add({5, 1, 3, 1, 5});
  ASSERT_EQ(db.size(), 1u);
  auto txn = db.Get(0);
  ASSERT_EQ(txn.size(), 3u);
  EXPECT_EQ(txn[0], 1u);
  EXPECT_EQ(txn[1], 3u);
  EXPECT_EQ(txn[2], 5u);
  EXPECT_EQ(db.max_width(), 3u);
  EXPECT_EQ(db.alphabet_size(), 6u);
}

TEST(TransactionDb, EmptyTransactionsAllowed) {
  TransactionDb db;
  db.Add(std::initializer_list<ItemId>{});
  db.Add({2});
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.Get(0).size(), 0u);
  EXPECT_DOUBLE_EQ(db.avg_width(), 0.5);
}

TEST(TransactionDb, CountSupportAndContains) {
  TransactionDb db;
  db.Add({1, 2, 3});
  db.Add({2, 3});
  db.Add({1, 3});
  EXPECT_EQ(db.CountSupport(Itemset{3}), 3u);
  EXPECT_EQ(db.CountSupport(Itemset{2, 3}), 2u);
  EXPECT_EQ(db.CountSupport(Itemset{1, 2, 3}), 1u);
  EXPECT_EQ(db.CountSupport(Itemset{4}), 0u);
  EXPECT_TRUE(db.Contains(0, Itemset{1, 3}));
  EXPECT_FALSE(db.Contains(1, Itemset{1}));
}

TEST(TransactionDb, ItemFrequencies) {
  TransactionDb db;
  db.Add({0, 1});
  db.Add({1, 2});
  db.Add({1});
  const std::vector<uint32_t> freq = db.ItemFrequencies();
  ASSERT_EQ(freq.size(), 3u);
  EXPECT_EQ(freq[0], 1u);
  EXPECT_EQ(freq[1], 3u);
  EXPECT_EQ(freq[2], 1u);
}

TEST(TransactionDb, GeneralizeCollapsesAndDrops) {
  TransactionDb db;
  db.Add({0, 1, 2});
  db.Add({2, 3});
  // 0,1 -> 10; 2 -> 11; 3 -> dropped.
  std::vector<ItemId> lut = {10, 10, 11, kInvalidItem};
  TransactionDb gen = db.Generalize(lut);
  ASSERT_EQ(gen.size(), 2u);
  EXPECT_EQ(gen.Get(0).size(), 2u);  // {10, 11}
  EXPECT_EQ(gen.Get(1).size(), 1u);  // {11}
  EXPECT_EQ(gen.CountSupport(Itemset{10, 11}), 1u);
}

TEST(TransactionDb, GeneralizeMatchesPaperFigure4) {
  testutil::Dataset data = testutil::PaperToyDataset();
  // Level-1 view of D1 = {a, b}.
  TransactionDb db1 =
      data.db.Generalize(data.taxonomy.LevelMap(1));
  const ItemId a = *data.dict.Find("a");
  const ItemId b = *data.dict.Find("b");
  EXPECT_EQ(db1.Get(0).size(), 2u);
  EXPECT_EQ(db1.CountSupport(Itemset::Pair(a, b)), 7u);
}

}  // namespace
}  // namespace flipper
