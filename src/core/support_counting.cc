#include "core/support_counting.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/trace.h"
#include "core/candidate_trie.h"

namespace flipper {
namespace {

constexpr size_t kMinTxnsPerShard = 512;

/// Transactions between cancellation polls in the scan loop. Coarse
/// enough that an un-fired token costs one predictable branch per
/// item, fine enough that a fired token stops a shard within
/// microseconds.
constexpr size_t kCancelCheckStride = 512;

bool UniformArity(std::span<const Itemset> candidates) {
  return std::all_of(candidates.begin(), candidates.end(),
                     [&](const Itemset& c) {
                       return c.size() == candidates.front().size();
                     });
}

/// The counting engine's one scan body: a sharded trie-counting scan
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

CountFuture SupportCounter::StartCount(const LevelViews* views, int h,
                                       std::span<const Itemset> candidates,
                                       std::vector<uint32_t>* supports) {
  supports->resize(candidates.size());
  if (candidates.empty()) return CountFuture(Status::OK());
  if (!UniformArity(candidates)) {
    return CountFuture(Status::InvalidArgument(
        "support counting needs a uniform-arity batch (level " +
        std::to_string(h) + ", " + std::to_string(candidates.size()) +
        " candidates)"));
  }
  ++num_db_scans_;
  return StartTrieScan(views->Level(h).db, candidates, pool_, *supports,
                       &scratch_, cancel_, h);
}

}  // namespace flipper
