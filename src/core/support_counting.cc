#include "core/support_counting.h"

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "common/trace.h"
#include "core/candidate_trie.h"

namespace flipper {
namespace {

constexpr size_t kMinTxnsPerShard = 512;

/// Candidates per shard below which sharding the intersection loop is
/// not worth the task dispatch and per-shard scratch.
constexpr size_t kMinCandidatesPerShard = 64;

/// Transactions between cancellation polls in the horizontal scan
/// loops (and candidates between polls in the vertical loops). Coarse
/// enough that an un-fired token costs one predictable branch per
/// item, fine enough that a fired token stops a shard within
/// microseconds.
constexpr size_t kCancelCheckStride = 512;
constexpr size_t kCancelCheckStrideVertical = 64;

bool UniformArity(std::span<const Itemset> candidates) {
  return std::all_of(candidates.begin(), candidates.end(),
                     [&](const Itemset& c) {
                       return c.size() == candidates.front().size();
                     });
}

/// The horizontal engine's one scan body: a sharded trie-counting scan
/// of `db` for a non-empty uniform-arity batch. Each shard counts a
/// contiguous transaction range into a private buffer; the join sums
/// the buffers into `supports` in shard order, so supports are
/// bit-identical for any shard count. The trie and the shard buffers
/// are moved out of `pooled` into state the tasks share, and handed
/// back by the join, so consecutive scans rebuild into warm arenas.
/// Both moves run on the calling thread, so the pooling needs no
/// synchronization. With a pool the shards run as one batch and the
/// caller is free until it joins; without one they run inline before
/// this returns. `supports` and `pooled` must outlive the join, and
/// `pooled` must not back two scans in flight. `h` only labels spans.
CountFuture StartTrieScan(const TransactionDb& db,
                          std::span<const Itemset> candidates,
                          ThreadPool* pool, std::span<uint32_t> supports,
                          CountBatchScratch* pooled,
                          const CancelToken* cancel, int h) {
  const int arity = candidates.front().size();
  auto state = std::make_shared<CountBatchScratch>(std::move(*pooled));
  {
    FLIPPER_TRACE_SPAN_HK("trie_build", "detail", h, arity);
    state->trie.Build(candidates);
  }
  const int num_shards = ShardCount(db.size(), pool, kMinTxnsPerShard);
  if (state->partial.size() < static_cast<size_t>(num_shards)) {
    state->partial.resize(static_cast<size_t>(num_shards));
  }

  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(num_shards));
  const size_t num_candidates = candidates.size();
  for (int s = 0; s < num_shards; ++s) {
    const auto [lo, hi] = ShardRange(0, db.size(), num_shards, s);
    tasks.push_back([state, &db, s, lo = lo, hi = hi, num_candidates,
                     cancel, h, arity] {
      FLIPPER_TRACE_SPAN_HK("count_shard", "task", h, arity);
      auto& counts = state->partial[static_cast<size_t>(s)];
      counts.assign(num_candidates, 0);
      // Cancellation poll every kCancelCheckStride transactions; a
      // fired token abandons the shard (partial counts — the driver
      // re-checks the token before ever evaluating supports).
      size_t until_check = kCancelCheckStride;
      for (size_t t = lo; t < hi; ++t) {
        if (cancel != nullptr && --until_check == 0) {
          until_check = kCancelCheckStride;
          if (cancel->Fired()) return;
        }
        state->trie.CountTransaction(db.Get(static_cast<TxnId>(t)),
                                     counts);
      }
    });
  }
  ThreadPool::Completion completion;
  if (pool != nullptr) {
    completion = pool->SubmitBatch(std::move(tasks));
  } else {
    for (const auto& task : tasks) task();
  }
  return CountFuture(
      std::move(completion),
      [state, supports, pooled, num_shards, h, arity] {
        FLIPPER_TRACE_SPAN_HK("shard_merge", "detail", h, arity);
        std::fill(supports.begin(), supports.end(), 0u);
        for (int s = 0; s < num_shards; ++s) {
          const auto& counts = state->partial[static_cast<size_t>(s)];
          for (size_t i = 0; i < supports.size(); ++i) {
            supports[i] += counts[i];
          }
        }
        *pooled = std::move(*state);
        return Status::OK();
      });
}

class HorizontalCounter final : public SupportCounter {
 public:
  HorizontalCounter(ThreadPool* pool, const CancelToken* cancel)
      : pool_(pool), cancel_(cancel) {}

  Status Count(const LevelViews* views, int h,
               std::span<const Itemset> candidates,
               std::vector<uint32_t>* supports) override {
    if (UniformArity(candidates)) {
      return StartCount(views, h, candidates, supports).Join();
    }
    // The trie requires uniform arity. The mining engines always send
    // one arity; mixed batches (tests, ad-hoc callers) group by size,
    // one scan per group.
    supports->resize(candidates.size());
    const TransactionDb& db = views->Level(h).db;
    std::array<std::vector<uint32_t>, kMaxItemsetSize + 1> by_size;
    for (size_t i = 0; i < candidates.size(); ++i) {
      by_size[static_cast<size_t>(candidates[i].size())].push_back(
          static_cast<uint32_t>(i));
    }
    std::vector<Itemset> batch;
    std::vector<uint32_t> batch_supports;
    for (const auto& group : by_size) {
      if (group.empty()) continue;
      batch.clear();
      for (uint32_t idx : group) batch.push_back(candidates[idx]);
      batch_supports.resize(batch.size());
      FLIPPER_RETURN_IF_ERROR(StartTrieScan(db, batch, pool_,
                                            batch_supports, &scratch_,
                                            cancel_, h)
                                  .Join());
      ++num_db_scans_;
      for (size_t j = 0; j < group.size(); ++j) {
        (*supports)[group[j]] = batch_supports[j];
      }
    }
    return Status::OK();
  }

  CountFuture StartCount(const LevelViews* views, int h,
                         std::span<const Itemset> candidates,
                         std::vector<uint32_t>* supports) override {
    supports->resize(candidates.size());
    if (candidates.empty()) return CountFuture(Status::OK());
    if (!UniformArity(candidates)) {
      return CountFuture(Count(views, h, candidates, supports));
    }
    ++num_db_scans_;
    return StartTrieScan(views->Level(h).db, candidates, pool_, *supports,
                         &scratch_, cancel_, h);
  }

  const char* name() const override { return "horizontal"; }

 private:
  ThreadPool* pool_;
  const CancelToken* cancel_;
  /// Pooled trie arena + shard buffers, reused across counts (the
  /// row-level reuse seam). Only touched from the thread driving
  /// Count/StartCount/Join.
  CountBatchScratch scratch_;
};

class VerticalCounter final : public SupportCounter {
 public:
  VerticalCounter(ThreadPool* pool, const CancelToken* cancel)
      : pool_(pool), cancel_(cancel) {}

  Status Count(const LevelViews* views, int h,
               std::span<const Itemset> candidates,
               std::vector<uint32_t>* supports) override {
    supports->assign(candidates.size(), 0);
    if (candidates.empty()) return Status::OK();
    const VerticalIndex& index = views->EnsureVertical(h, pool_);
    // Each shard owns a disjoint slice of `supports`, with one
    // intersection scratch per shard.
    const int num_shards =
        ShardCount(candidates.size(), pool_, kMinCandidatesPerShard);
    const CancelToken* cancel = cancel_;
    ParallelFor(pool_, 0, candidates.size(), num_shards,
                [&](int, size_t lo, size_t hi) {
                  TidSet::IntersectScratch scratch;
                  for (size_t i = lo; i < hi; ++i) {
                    if (cancel != nullptr &&
                        ((i - lo) & (kCancelCheckStrideVertical - 1)) == 0 &&
                        cancel->Fired()) {
                      break;
                    }
                    (*supports)[i] =
                        index.Support(candidates[i], &scratch);
                  }
                });
    return Status::OK();
  }

  CountFuture StartCount(const LevelViews* views, int h,
                         std::span<const Itemset> candidates,
                         std::vector<uint32_t>* supports) override {
    supports->assign(candidates.size(), 0);
    if (candidates.empty()) return CountFuture(Status::OK());
    if (pool_ == nullptr) {
      return CountFuture(Count(views, h, candidates, supports));
    }
    // Build the lazy index before going async (thread-safe seam).
    const VerticalIndex& index = views->EnsureVertical(h, pool_);
    const int num_shards =
        ShardCount(candidates.size(), pool_, kMinCandidatesPerShard);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(static_cast<size_t>(num_shards));
    const CancelToken* cancel = cancel_;
    for (int s = 0; s < num_shards; ++s) {
      const auto [lo, hi] =
          ShardRange(0, candidates.size(), num_shards, s);
      // Each shard writes a disjoint slice of `supports`.
      tasks.push_back([&index, candidates, supports, lo = lo, hi = hi, h,
                       cancel] {
        FLIPPER_TRACE_SPAN_HK("count_shard", "task", h, -1);
        TidSet::IntersectScratch scratch;
        for (size_t i = lo; i < hi; ++i) {
          if (cancel != nullptr &&
              ((i - lo) & (kCancelCheckStrideVertical - 1)) == 0 &&
              cancel->Fired()) {
            break;
          }
          (*supports)[i] = index.Support(candidates[i], &scratch);
        }
      });
    }
    return CountFuture(pool_->SubmitBatch(std::move(tasks)), nullptr);
  }

  const char* name() const override { return "vertical"; }

 private:
  ThreadPool* pool_;
  const CancelToken* cancel_;
};

}  // namespace

Status CountFuture::Join() {
  if (joined_) return status_;
  joined_ = true;
  try {
    completion_.Wait();
  } catch (const std::exception& e) {
    status_ = Status::Internal(std::string("async count failed: ") +
                               e.what());
    return status_;
  }
  if (finalize_ != nullptr) status_ = finalize_();
  return status_;
}

Status CountBatchWithTrie(const TransactionDb& db,
                          std::span<const Itemset> candidates,
                          ThreadPool* pool, std::span<uint32_t> supports,
                          CountBatchScratch* scratch) {
  if (candidates.empty()) return Status::OK();
  CountBatchScratch local;
  return StartTrieScan(db, candidates, pool, supports,
                       scratch != nullptr ? scratch : &local,
                       /*cancel=*/nullptr, /*h=*/0)
      .Join();
}

std::unique_ptr<SupportCounter> MakeCounter(CounterKind kind,
                                            ThreadPool* pool,
                                            const CancelToken* cancel) {
  switch (kind) {
    case CounterKind::kHorizontal:
      return std::make_unique<HorizontalCounter>(pool, cancel);
    case CounterKind::kVertical:
      return std::make_unique<VerticalCounter>(pool, cancel);
  }
  return nullptr;
}

}  // namespace flipper
