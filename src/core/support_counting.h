// Support-counting engines. Both compute sup(A) for a batch of
// candidate itemsets against one abstraction level's view:
//
//   HorizontalCounter — one sequential scan of the generalized
//     database per batch, probing a candidate prefix trie (the paper's
//     disk-scan counting model, §5);
//   VerticalCounter   — k-way TID-set intersections over the level's
//     vertical index (an ablation alternative, bench A1).
//
// Both engines accept an optional ThreadPool. The horizontal scan is
// sharded over contiguous transaction ranges with per-shard private
// counter buffers merged in shard order; the vertical engine shards the
// candidate list with per-shard intersection scratch. Either way the
// supports are bit-identical to the serial path for any thread count.

#ifndef FLIPPER_CORE_SUPPORT_COUNTING_H_
#define FLIPPER_CORE_SUPPORT_COUNTING_H_

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/candidate_trie.h"
#include "core/config.h"
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

class SupportCounter {
 public:
  virtual ~SupportCounter() = default;

  /// Fills `supports` (resized to candidates.size()) with sup of each
  /// candidate in level `h`'s view. The views are only read (the lazy
  /// vertical index is built through its thread-safe seam), so several
  /// counters — each with its own pool — may share one LevelViews.
  virtual Status Count(const LevelViews* views, int h,
                       std::span<const Itemset> candidates,
                       std::vector<uint32_t>* supports) = 0;

  /// Starts counting without blocking: shard tasks are dispatched to
  /// the pool and the calling thread is free until it joins the
  /// returned future (which fills `supports`). `candidates` and
  /// `supports` must stay valid until the join. Engines without an
  /// asynchronous path (and pool-less counters) count synchronously
  /// and return a ready future; either way one db scan is accounted
  /// per non-empty batch, exactly as in Count().
  virtual CountFuture StartCount(const LevelViews* views, int h,
                                 std::span<const Itemset> candidates,
                                 std::vector<uint32_t>* supports) {
    return CountFuture(Count(views, h, candidates, supports));
  }

  virtual const char* name() const = 0;

  /// Number of full database scans performed so far (horizontal
  /// counting only; vertical reports 0).
  uint64_t num_db_scans() const { return num_db_scans_; }

 protected:
  uint64_t num_db_scans_ = 0;
};

/// `pool` (optional, not owned, must outlive the counter) parallelizes
/// each Count() call. `cancel` (optional) is a cooperative-cancellation
/// token: shard tasks poll it every few hundred transactions
/// (horizontal) / candidates (vertical) and bail early once it fires,
/// leaving the supports partial — the driver must discard them
/// (CellPipeline re-checks the token before evaluating). An un-fired
/// token changes nothing. The horizontal engine keeps one trie arena
/// plus per-shard counter buffers alive across calls (the row-level
/// reuse seam), which requires its StartCount futures to be joined one
/// at a time — exactly the cell pipeline's sequential begin/finish
/// discipline.
std::unique_ptr<SupportCounter> MakeCounter(
    CounterKind kind, ThreadPool* pool = nullptr,
    const CancelToken* cancel = nullptr);

/// Reusable state of one batch scan: the trie arena and the per-shard
/// private counter buffers. A caller that keeps one instance across
/// CountBatchWithTrie calls (e.g. across a row's cells) re-counts into
/// warm buffers.
struct CountBatchScratch {
  CandidateTrie trie;
  std::vector<std::vector<uint32_t>> partial;
};

/// One sharded trie-counting scan of `db` for a uniform-arity batch
/// (all candidates the same size, distinct). Fills `supports[i]` with
/// sup(candidates[i]). This is the horizontal engine's scan, exposed
/// for the thread-scaling bench and the equivalence tests. `scratch`
/// is reused across calls when non-null (row-level trie reuse) and
/// must not be shared between concurrent scans.
Status CountBatchWithTrie(const TransactionDb& db,
                          std::span<const Itemset> candidates,
                          ThreadPool* pool, std::span<uint32_t> supports,
                          CountBatchScratch* scratch = nullptr);

}  // namespace flipper

#endif  // FLIPPER_CORE_SUPPORT_COUNTING_H_
