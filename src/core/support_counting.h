// Support counting: one concrete engine, SupportCounter, computes
// sup(A) for a batch of same-size candidate itemsets against one
// abstraction level's view with a sharded sequential scan of the
// generalized database that probes a candidate prefix trie (the
// paper's disk-scan counting model, §5). CountBatchWithTrie exposes
// the same scan over a bare TransactionDb.

#ifndef FLIPPER_CORE_SUPPORT_COUNTING_H_
#define FLIPPER_CORE_SUPPORT_COUNTING_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/candidate_trie.h"
#include "core/level_views.h"
#include "data/itemset.h"

namespace flipper {

/// Handle for an asynchronous Count() started with
/// SupportCounter::StartCount. Join() blocks until the supports vector
/// is filled and returns the final status; it also runs the
/// deterministic shard-order merge on the joining thread, so supports
/// are bit-identical to the synchronous path. Default-constructed
/// handles are already complete with OK. Join() is idempotent.
class CountFuture {
 public:
  CountFuture() = default;
  /// An already-complete count with the given status.
  explicit CountFuture(Status ready) : status_(std::move(ready)) {}
  /// An in-flight count: `completion` guards the submitted shard
  /// tasks, `finalize` (may be null) merges their private buffers in
  /// shard order after they complete.
  CountFuture(ThreadPool::Completion completion,
              std::function<Status()> finalize)
      : completion_(std::move(completion)),
        finalize_(std::move(finalize)) {}

  Status Join();

 private:
  ThreadPool::Completion completion_;
  std::function<Status()> finalize_;
  Status status_ = Status::OK();
  bool joined_ = false;
};

/// Reusable state of one batch scan: the trie arena and the per-shard
/// private counter buffers. A caller that keeps one instance across
/// CountBatchWithTrie calls (e.g. across a row's cells) re-counts into
/// warm buffers.
struct CountBatchScratch {
  CandidateTrie trie;
  std::vector<std::vector<uint32_t>> partial;
};

/// The support-counting engine: fills sup(A) for a uniform-arity
/// batch of candidate itemsets with one sequential scan of an
/// abstraction level's generalized database, probing a candidate
/// prefix trie (the paper's disk-scan counting model, §5).
///
/// `pool` (optional, not owned, must outlive the counter) shards each
/// scan over contiguous transaction ranges with per-shard private
/// counter buffers merged in shard order, so supports are
/// bit-identical to the serial path for any thread count. `cancel`
/// (optional) is a cooperative-cancellation token: shard tasks poll it
/// every few hundred transactions and bail early once it fires,
/// leaving the supports partial — the driver must discard them
/// (CellPipeline re-checks the token before evaluating). An un-fired
/// token changes nothing.
///
/// The counter keeps one trie arena plus per-shard counter buffers
/// alive across calls (the row-level reuse seam), which requires its
/// StartCount futures to be joined one at a time — exactly the cell
/// pipeline's sequential begin/finish discipline. The views are only
/// read, so several counters — each with its own pool — may share one
/// LevelViews.
class SupportCounter {
 public:
  explicit SupportCounter(ThreadPool* pool = nullptr,
                          const CancelToken* cancel = nullptr)
      : pool_(pool), cancel_(cancel) {}

  /// Starts counting level `h`'s view without blocking: shard tasks
  /// are dispatched to the pool and the calling thread is free until
  /// it joins the returned future, which fills `supports` (resized to
  /// candidates.size()). `candidates` and `supports` must stay valid
  /// until the join. Without a pool the scan runs inline and the
  /// future is ready. Every candidate must have the same size; a
  /// mixed-arity batch returns a ready InvalidArgument future. One db
  /// scan is accounted per non-empty batch.
  CountFuture StartCount(const LevelViews* views, int h,
                         std::span<const Itemset> candidates,
                         std::vector<uint32_t>* supports);

  /// StartCount(...).Join().
  Status Count(const LevelViews* views, int h,
               std::span<const Itemset> candidates,
               std::vector<uint32_t>* supports) {
    return StartCount(views, h, candidates, supports).Join();
  }

  /// Number of full database scans performed so far.
  uint64_t num_db_scans() const { return num_db_scans_; }

 private:
  ThreadPool* pool_;
  const CancelToken* cancel_;
  uint64_t num_db_scans_ = 0;
  /// Pooled trie arena + shard buffers, reused across counts. Only
  /// touched from the thread driving StartCount/Join.
  CountBatchScratch scratch_;
};

/// One sharded trie-counting scan of `db` for a uniform-arity batch
/// (all candidates the same size, distinct). Fills `supports[i]` with
/// sup(candidates[i]). This is SupportCounter's scan, exposed for the
/// thread-scaling bench and the equivalence tests. `scratch`
/// is reused across calls when non-null (row-level trie reuse) and
/// must not be shared between concurrent scans.
Status CountBatchWithTrie(const TransactionDb& db,
                          std::span<const Itemset> candidates,
                          ThreadPool* pool, std::span<uint32_t> supports,
                          CountBatchScratch* scratch = nullptr);

}  // namespace flipper

#endif  // FLIPPER_CORE_SUPPORT_COUNTING_H_
