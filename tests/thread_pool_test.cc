// ThreadPool / ParallelFor: batch execution, overlapping batches from
// concurrent submitters, deterministic static sharding, inline
// fallbacks, and exception propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace flipper {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7);
}

std::vector<std::function<void()>> Repeat(int n,
                                          const std::function<void()>& fn) {
  return std::vector<std::function<void()>>(static_cast<size_t>(n), fn);
}

TEST(ThreadPool, RunsEveryTaskOfABatch) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  pool.SubmitBatch(Repeat(100, [&counter] { ++counter; })).Wait();
  EXPECT_EQ(counter.load(), 100);

  // The pool is reusable, and an empty batch is already complete.
  pool.SubmitBatch(Repeat(1, [&counter] { counter += 10; })).Wait();
  pool.SubmitBatch({}).Wait();
  EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPool, SingleThreadPoolRunsBatchesInTheJoin) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int x = 0;
  ThreadPool::Completion done =
      pool.SubmitBatch(Repeat(1, [&x] { x = 42; }));
  EXPECT_EQ(x, 0);  // no worker: nothing runs before the join
  done.Wait();
  EXPECT_EQ(x, 42);
}

TEST(ThreadPool, WaitPropagatesTaskExceptionOnce) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks =
      Repeat(8, [&counter] { ++counter; });
  tasks.push_back([] { throw std::runtime_error("boom"); });
  ThreadPool::Completion done = pool.SubmitBatch(std::move(tasks));
  ThreadPool::Completion copy = done;
  EXPECT_THROW(done.Wait(), std::runtime_error);
  EXPECT_EQ(counter.load(), 8);  // the rest of the batch still ran
  EXPECT_NO_THROW(copy.Wait());
  // The pool survives and keeps working.
  pool.SubmitBatch(Repeat(1, [&counter] { ++counter; })).Wait();
  EXPECT_EQ(counter.load(), 9);
}

class CountingObserver : public PoolTaskObserver {
 public:
  void OnPoolTask(uint64_t, uint64_t) override { tasks.fetch_add(1); }
  std::atomic<uint64_t> tasks{0};
};

// Two submitters share one pool, as concurrent daemon queries do: each
// join returns only once all of its own batch ran, never runs the other
// submitter's tasks, and each observer sees exactly its own tasks.
class SharedPoolThreads : public ::testing::TestWithParam<int> {};

TEST_P(SharedPoolThreads, OverlappingBatchesJoinOnlyTheirOwnTasks) {
  ThreadPool pool(GetParam());
  constexpr int kBatches = 200;
  struct Submitter {
    CountingObserver observer;
    std::atomic<int> ran{0};
    std::atomic<int> ran_on_other_submitter{0};
    std::thread::id id;
    int expected = 0;
  };
  Submitter subs[2];
  std::atomic<int> started{0};
  auto submit = [&](int me) {
    Submitter& self = subs[me];
    Submitter& other = subs[1 - me];
    self.id = std::this_thread::get_id();
    // Both ids are published before either submits.
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    PoolObserverScope scope(&self.observer);
    for (int b = 0; b < kBatches; ++b) {
      const int n = 1 + (b * 7 + me) % 9;
      std::atomic<int> batch_ran{0};
      pool.SubmitBatch(Repeat(n, [&] {
            std::this_thread::yield();  // let the batches interleave
            if (std::this_thread::get_id() == other.id) {
              ++self.ran_on_other_submitter;
            }
            ++batch_ran;
            ++self.ran;
          })).Wait();
      EXPECT_EQ(batch_ran.load(), n) << "submitter " << me << " batch " << b;
      self.expected += n;
    }
  };
  std::thread first([&] { submit(0); });
  std::thread second([&] { submit(1); });
  first.join();
  second.join();
  for (const Submitter& sub : subs) {
    EXPECT_EQ(sub.ran.load(), sub.expected);
    EXPECT_EQ(sub.observer.tasks.load(),
              static_cast<uint64_t>(sub.expected));
    EXPECT_EQ(sub.ran_on_other_submitter.load(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SharedPoolThreads,
                         ::testing::Values(1, 2, 4));

TEST(ShardRange, PartitionsExactly) {
  for (size_t begin : {size_t{0}, size_t{5}}) {
    for (size_t total : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
      for (int shards : {1, 2, 3, 8}) {
        const size_t end = begin + total;
        size_t expect_lo = begin;
        for (int s = 0; s < shards; ++s) {
          const auto [lo, hi] = ShardRange(begin, end, shards, s);
          EXPECT_EQ(lo, expect_lo);
          EXPECT_LE(hi, end);
          // Shard sizes differ by at most one.
          EXPECT_LE(hi - lo, total / static_cast<size_t>(shards) + 1);
          expect_lo = hi;
        }
        EXPECT_EQ(expect_lo, end);
      }
    }
  }
}

class ParallelForThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForThreads, VisitsEveryIndexOnce) {
  const int threads = GetParam();
  ThreadPool pool(threads);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(&pool, 0, kN, threads * 3,
              [&](int shard, size_t lo, size_t hi) {
                EXPECT_GE(shard, 0);
                EXPECT_LT(lo, hi);
                for (size_t i = lo; i < hi; ++i) ++visits[i];
              });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForThreads,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelFor, NullPoolRunsInlineInShardOrder) {
  std::vector<int> shards_seen;
  ParallelFor(nullptr, 0, 10, 4, [&](int shard, size_t lo, size_t hi) {
    EXPECT_LT(lo, hi);
    shards_seen.push_back(shard);
  });
  EXPECT_EQ(shards_seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParallelFor, EmptyRangeAndExcessShards) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 5, 5, 4, [&](int, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  // More shards than elements: every element still visited once, no
  // empty-shard callbacks.
  std::atomic<int> visited{0};
  ParallelFor(&pool, 0, 3, 16, [&](int, size_t lo, size_t hi) {
    visited += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(visited.load(), 3);
}

}  // namespace
}  // namespace flipper
