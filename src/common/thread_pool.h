// ThreadPool: a fixed-size worker pool of task batches plus a
// ParallelFor helper with deterministic static range-sharding. The
// counting engines shard work so that every shard writes into private
// state and shards are reduced in shard-index order, which keeps
// results bit-identical to the serial path regardless of thread count.

#ifndef FLIPPER_COMMON_THREAD_POOL_H_
#define FLIPPER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace flipper {

/// Observes every task the pool runs: `queue_ns` is the submit→start
/// latency, `run_ns` the task's execution time. Implementations must
/// be thread-safe (workers call concurrently) and must not call back
/// into the pool. MetricsRegistry (core/pipeline_metrics.h) is the
/// production implementation; the interface lives here so common/
/// needs no dependency on core/.
class PoolTaskObserver {
 public:
  virtual ~PoolTaskObserver() = default;
  virtual void OnPoolTask(uint64_t queue_ns, uint64_t run_ns) = 0;
};

/// Attaches `observer` to the calling thread for the scope's lifetime
/// (restoring the previous one on destruction): every batch this
/// thread submits meanwhile carries it, so each task is reported to
/// the observer of the query that submitted it even when several
/// queries share one pool. Pass nullptr to detach.
class PoolObserverScope {
 public:
  explicit PoolObserverScope(PoolTaskObserver* observer);
  ~PoolObserverScope();

  PoolObserverScope(const PoolObserverScope&) = delete;
  PoolObserverScope& operator=(const PoolObserverScope&) = delete;

 private:
  PoolTaskObserver* prev_;
};

/// A fixed-size worker pool that runs batches of tasks. Any number of
/// threads may submit and join batches concurrently: a long-lived pool
/// is lent to every query of a daemon, each query joining only its own
/// batches.
class ThreadPool {
  /// One submitted batch: its tasks, the submitter's context, and its
  /// completion state. Guarded by the pool mutex.
  struct Batch;

 public:
  /// Maps a requested thread count to an effective one: 0 means "all
  /// hardware threads", anything else is clamped to >= 1.
  static int ResolveThreadCount(int requested);

  /// Starts `ResolveThreadCount(num_threads) - 1` workers; the joining
  /// thread is the remaining executor (a 1-thread pool spawns nothing
  /// and runs every task in Completion::Wait).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Effective parallelism (workers + the joining thread).
  int num_threads() const { return num_threads_; }

  /// Completion handle for one batch of tasks enqueued with
  /// SubmitBatch. Copyable; all copies refer to the same batch.
  class Completion {
   public:
    /// A default handle is already complete (no batch attached).
    Completion() = default;

    /// Blocks until every task of the batch has finished. The calling
    /// thread first runs the batch's still-queued tasks itself — never
    /// another batch's — so a join needs no idle worker (a 1-thread
    /// pool's batches only run here) and never runs another query's
    /// work. Rethrows the first exception a batch task raised, once
    /// across all copies of the handle.
    void Wait();

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;
    std::shared_ptr<Batch> batch_;
  };

  /// Enqueues `tasks` as one batch, under one lock with one wake-up.
  /// The batch carries the calling thread's trace session and pool
  /// observer (PoolObserverScope); both must outlive the join.
  /// Batches run in submission order; each joins only its own tasks.
  Completion SubmitBatch(std::vector<std::function<void()>> tasks);

 private:
  void WorkerLoop();
  /// Runs task `index` of `batch`, claimed under `lock`, with the lock
  /// released; returns with it re-acquired and the task accounted.
  void RunClaimed(const std::shared_ptr<Batch>& batch, size_t index,
                  std::unique_lock<std::mutex>* lock);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;  // workers wait here
  /// The batches with unclaimed tasks, oldest first; whoever claims a
  /// batch's last task removes it.
  std::deque<std::shared_ptr<Batch>> queue_;
  bool shutdown_ = false;
};

/// Number of shards for `total_items` work items: `max_shards` (a
/// run's thread budget), reduced so every shard keeps at least
/// `min_items_per_shard` (below that, per-shard buffer and merge
/// overhead beats the parallelism).
int ShardCount(size_t total_items, int max_shards,
               size_t min_items_per_shard);

/// Deterministic static sharding: splits [begin, end) into `num_shards`
/// contiguous ranges whose sizes differ by at most one. Returns the
/// half-open range of shard `shard` (empty ranges are possible when
/// there are more shards than elements).
std::pair<size_t, size_t> ShardRange(size_t begin, size_t end,
                                     int num_shards, int shard);

/// Invokes `fn(shard, lo, hi)` for every non-empty shard of
/// [begin, end), as one batch on `pool`, and joins it. A null pool or
/// a 1-thread pool runs the shards inline on the calling thread, in
/// shard order.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 int num_shards,
                 const std::function<void(int, size_t, size_t)>& fn);

}  // namespace flipper

#endif  // FLIPPER_COMMON_THREAD_POOL_H_
