// Support counting: one concrete engine, SupportCounter, counts a
// batch against one abstraction level's view with a sharded
// sequential scan of the generalized database (the paper's disk-scan
// counting model, §5). A candidate batch (StartCount) fills sup(A)
// for same-size candidates in one of two counter layouts picked from
// its shape (ChooseCountLayout): a dense array with one counter per
// k-combination of the batch's distinct items when that array is
// small, else a candidate prefix trie. An occurring-combination batch
// (StartCountOccurring, the scan-driven cell) counts every
// k-combination of an item list that occurs, in per-shard hash tables.
// CountBatchWithTrie exposes the trie scan alone over a bare
// TransactionDb; the NaiveMiner oracle counts through it, so every
// miner-vs-oracle comparison is also a dense-vs-trie differential.

#ifndef FLIPPER_CORE_SUPPORT_COUNTING_H_
#define FLIPPER_CORE_SUPPORT_COUNTING_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/candidate_trie.h"
#include "core/level_views.h"
#include "core/scan_counter.h"
#include "data/itemset.h"

namespace flipper {

/// How one batch scan lays out its counters.
enum class CountLayout {
  /// One counter per candidate, reached by walking each transaction
  /// through the candidate prefix trie.
  kTrie,
  /// One counter per k-combination of the batch's n distinct items,
  /// at its colex index: each transaction increments every
  /// k-combination of its items that belong to the batch.
  kDense,
};

/// Most dense counters a batch may use: 256 KiB per shard.
inline constexpr uint64_t kDenseMaxCombinations = uint64_t{1} << 16;

/// For k >= 3, most dense counters per candidate: a sparse batch over
/// wide transactions must not enumerate far more combinations than it
/// has candidates.
inline constexpr uint64_t kDenseMaxCombinationsPerCandidate = 64;

/// C(n, k), or UINT64_MAX when it does not fit in 64 bits.
constexpr uint64_t SaturatingBinomial(uint64_t n, int k) {
  if (k < 0 || static_cast<uint64_t>(k) > n) return 0;
  const uint64_t j_max = std::min<uint64_t>(k, n - k);
  // C(n, j) = C(n, j-1) * (n-j+1) / j is exact and, for j <= n/2,
  // increasing in j: once it passes UINT64_MAX the result does too.
  unsigned __int128 c = 1;
  for (uint64_t j = 1; j <= j_max; ++j) {
    c = c * (n - j + 1) / j;
    if (c > std::numeric_limits<uint64_t>::max()) {
      return std::numeric_limits<uint64_t>::max();
    }
  }
  return static_cast<uint64_t>(c);
}

/// The counter layout of a batch of `num_candidates` k-itemsets over
/// `n` distinct items: dense when k >= 2 and C(n, k) fits
/// kDenseMaxCombinations and, for k >= 3, also
/// kDenseMaxCombinationsPerCandidate * num_candidates; else the trie.
constexpr CountLayout ChooseCountLayout(uint64_t n, int k,
                                        size_t num_candidates) {
  if (k < 2) return CountLayout::kTrie;
  const uint64_t combinations = SaturatingBinomial(n, k);
  if (combinations > kDenseMaxCombinations) return CountLayout::kTrie;
  if (k >= 3 && combinations > kDenseMaxCombinationsPerCandidate *
                                   static_cast<uint64_t>(num_candidates)) {
    return CountLayout::kTrie;
  }
  return CountLayout::kDense;
}

/// Handle for an asynchronous count started with
/// SupportCounter::StartCount or StartCountOccurring. Join() blocks
/// until the outputs are filled and returns the final status; it also
/// runs the deterministic shard-order merge on the joining thread, so
/// the outputs are bit-identical to the synchronous path.
/// Default-constructed handles are already complete with OK. Join() is
/// idempotent.
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

/// Reusable state of one batch scan: the trie arena, the per-shard
/// private counter buffers and hash tables, and the batch's rank
/// table. The thread that starts a scan sizes every buffer, so pool
/// workers never allocate. A caller that keeps one instance across
/// calls (e.g. across a row's cells) re-counts into warm buffers.
struct CountBatchScratch {
  CandidateTrie trie;
  /// Shard s's counters: one per candidate (trie), one per
  /// k-combination followed by the shard's rank list of the current
  /// transaction (dense), or the rank list alone (occurring).
  std::vector<std::vector<uint32_t>> partial;
  /// Occurring batches: shard s's hash counter, keyed by ranks.
  std::vector<ScanCounterTable> tables;
  /// Occurring batches: the items, ascending (rank r is items[r]).
  std::vector<ItemId> items;
  /// Rank of each batch item by ascending id, indexed by item id up to
  /// the batch's largest; other ids are unranked.
  std::vector<uint32_t> rank;
};

/// The support-counting engine: counts one batch — a uniform-arity
/// list of candidate itemsets, or every occurring k-combination of an
/// item list — with one sequential scan of an abstraction level's
/// generalized database (the paper's disk-scan counting model, §5).
/// ChooseCountLayout picks each candidate batch's counter layout from
/// its distinct items n, its arity k and its size.
///
/// `pool` (optional, not owned, must outlive the counter) shards each
/// scan over at most `max_shards` contiguous transaction ranges (the
/// run's thread budget; 0 = one per pool thread) with per-shard private
/// counter buffers merged in shard order, so supports are
/// bit-identical to the serial path for any thread count. `cancel`
/// (optional) is a cooperative-cancellation token: shard tasks poll it
/// every few hundred transactions and bail early once it fires,
/// leaving the supports partial — the driver must discard them
/// (CellPipeline re-checks the token before evaluating); an
/// occurring-combination join returns the token's status instead of
/// merging. A token that has fired before a Start call makes it return
/// the token's status without scanning. An un-fired token changes
/// nothing.
///
/// The counter keeps its scratch (trie arena, per-shard buffers and
/// tables, rank table) alive across calls (the row-level reuse seam),
/// so each future must be joined before the next count starts; the
/// cell pipeline joins every cell's count before it evaluates the cell.
/// The views are only read, and a pool may be shared, so several
/// counters — on one pool or several — may share one LevelViews.
class SupportCounter {
 public:
  explicit SupportCounter(ThreadPool* pool = nullptr,
                          const CancelToken* cancel = nullptr,
                          int max_shards = 0)
      : pool_(pool),
        cancel_(cancel),
        max_shards_(pool == nullptr  ? 1
                    : max_shards > 0 ? max_shards
                                     : pool->num_threads()) {}

  /// Starts counting level `h`'s view without blocking: shard tasks
  /// are dispatched to the pool and the calling thread is free until
  /// it joins the returned future, which fills `supports` (resized to
  /// candidates.size()). `candidates` and `supports` must stay valid
  /// until the join. Without a pool the scan runs inline and the
  /// future is ready. Every candidate must have the same size; a
  /// mixed-arity batch returns a ready InvalidArgument future. One db
  /// scan is accounted per non-empty batch that starts counting.
  CountFuture StartCount(const LevelViews* views, int h,
                         std::span<const Itemset> candidates,
                         std::vector<uint32_t>* supports);

  /// StartCount(...).Join().
  Status Count(const LevelViews* views, int h,
               std::span<const Itemset> candidates,
               std::vector<uint32_t>* supports) {
    return StartCount(views, h, candidates, supports).Join();
  }

  /// Starts counting, on level `h`'s view, every k-combination of
  /// `items` (ascending, duplicate-free) that occurs in some
  /// transaction. The join fills `itemsets` with those combinations in
  /// ascending order and `supports` with their supports; both must
  /// stay valid until then. Once one shard's hash table, or the merged
  /// one, holds more than `max_combinations` keys, the join returns
  /// ResourceExhausted. One db scan and one occurring scan are
  /// accounted per call that starts counting.
  CountFuture StartCountOccurring(const LevelViews* views, int h, int k,
                                  std::span<const ItemId> items,
                                  size_t max_combinations,
                                  std::vector<Itemset>* itemsets,
                                  std::vector<uint32_t>* supports);

  /// Number of full database scans performed so far.
  uint64_t num_db_scans() const { return num_db_scans_; }

  /// How many of those scans used the dense layout.
  uint64_t num_dense_scans() const { return num_dense_scans_; }

  /// How many of those scans counted occurring combinations.
  uint64_t num_occurring_scans() const { return num_occurring_scans_; }

  /// Heap growths of the pooled hash tables so far (the sum of their
  /// ScanCounterTable::grow_events). Read it with no count in flight.
  uint64_t arena_grow_events() const;

 private:
  ThreadPool* pool_;
  const CancelToken* cancel_;
  int max_shards_;
  uint64_t num_db_scans_ = 0;
  uint64_t num_dense_scans_ = 0;
  uint64_t num_occurring_scans_ = 0;
  /// Pooled scratch, reused across counts. Only touched from the
  /// thread driving the Start calls and Join.
  CountBatchScratch scratch_;
};

/// One sharded trie-counting scan of `db` for a uniform-arity batch
/// (all candidates the same size, distinct). Fills `supports[i]` with
/// sup(candidates[i]). This is SupportCounter's trie layout, whatever
/// the batch's shape: the NaiveMiner oracle, the thread-scaling bench
/// and the equivalence tests count through it. `scratch`
/// is reused across calls when non-null (row-level trie reuse) and
/// must not be shared between concurrent scans.
Status CountBatchWithTrie(const TransactionDb& db,
                          std::span<const Itemset> candidates,
                          ThreadPool* pool, std::span<uint32_t> supports,
                          CountBatchScratch* scratch = nullptr);

}  // namespace flipper

#endif  // FLIPPER_CORE_SUPPORT_COUNTING_H_
