#include "common/thread_pool.h"

#include <algorithm>

#include "common/trace.h"

namespace flipper {

namespace {

thread_local PoolTaskObserver* g_observer = nullptr;

}  // namespace

PoolObserverScope::PoolObserverScope(PoolTaskObserver* observer)
    : prev_(g_observer) {
  g_observer = observer;
}

PoolObserverScope::~PoolObserverScope() { g_observer = prev_; }

struct ThreadPool::Batch {
  std::vector<std::function<void()>> tasks;
  /// Index of the next unclaimed task.
  size_t next = 0;
  /// Claimed tasks still running, plus unclaimed ones.
  size_t pending = 0;
  std::exception_ptr first_error;
  /// Signalled, under the pool mutex, when `pending` reaches 0.
  std::condition_variable done;
  /// Submit timestamp (trace::NowNanos clock; 0 when neither tracing
  /// nor an observer needs timing).
  uint64_t submit_ns = 0;
  /// The submitter's trace session, re-attached around each task so
  /// its spans land in the query that submitted it.
  trace::Session* session = nullptr;
  PoolTaskObserver* observer = nullptr;

  bool claimable() const { return next < tasks.size(); }
};

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreadCount(num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool::Completion ThreadPool::SubmitBatch(
    std::vector<std::function<void()>> tasks) {
  Completion handle;
  if (tasks.empty()) return handle;
  auto batch = std::make_shared<Batch>();
  batch->pending = tasks.size();
  batch->tasks = std::move(tasks);
  batch->session = trace::CurrentSession();
  batch->observer = g_observer;
  // Only pay the clock read when someone consumes the timing.
  if (batch->observer != nullptr || trace::Enabled()) {
    batch->submit_ns = trace::NowNanos();
  }
  handle.pool_ = this;
  handle.batch_ = batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(batch));
  }
  work_ready_.notify_all();
  return handle;
}

void ThreadPool::RunClaimed(const std::shared_ptr<Batch>& batch,
                            size_t index,
                            std::unique_lock<std::mutex>* lock) {
  // Moved out so the task's captures die with the task, not with the
  // batch's last Completion handle.
  std::function<void()> fn = std::move(batch->tasks[index]);
  lock->unlock();
  trace::SessionScope session_scope(batch->session);
  const uint64_t start_ns = batch->submit_ns != 0 ? trace::NowNanos() : 0;
  std::exception_ptr error;
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  if (batch->submit_ns != 0) {
    const uint64_t end_ns = trace::NowNanos();
    const uint64_t queue_ns = start_ns - batch->submit_ns;
    if (batch->observer != nullptr) {
      batch->observer->OnPoolTask(queue_ns, end_ns - start_ns);
    }
    if (trace::Enabled()) {
      trace::Span span;
      span.name = "pool_task";
      span.cat = "pool";
      span.start_ns = start_ns;
      span.dur_ns = end_ns - start_ns;
      span.arg_kind = trace::Span::ArgKind::kWaitNs;
      span.arg0 = static_cast<int64_t>(queue_ns);
      trace::RecordSpan(span);
    }
  }
  fn = nullptr;  // captures die before the joiner can return
  lock->lock();
  if (error != nullptr && batch->first_error == nullptr) {
    batch->first_error = error;
  }
  if (--batch->pending == 0) batch->done.notify_all();
}

void ThreadPool::WorkerLoop() {
  // Stashes the display name (and registers with the current session
  // only if it is already recording); sessions attached later register
  // this thread lazily on its first span, picking the name up then —
  // short-lived pools in benches don't grow any registry for nothing.
  trace::SetThreadName("pool-worker");
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_ready_.wait(lock,
                     [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down with nothing left to run
    std::shared_ptr<Batch> batch = queue_.front();
    const size_t index = batch->next++;
    if (!batch->claimable()) queue_.pop_front();
    RunClaimed(batch, index, &lock);
  }
}

void ThreadPool::Completion::Wait() {
  if (batch_ == nullptr) return;
  std::unique_lock<std::mutex> lock(pool_->mu_);
  // Run this batch's unclaimed tasks here: on a pool with no idle
  // worker (notably num_threads == 1) they only ever run here.
  while (batch_->claimable()) {
    const size_t index = batch_->next++;
    if (!batch_->claimable()) {
      auto& queue = pool_->queue_;
      queue.erase(std::find(queue.begin(), queue.end(), batch_));
    }
    pool_->RunClaimed(batch_, index, &lock);
  }
  batch_->done.wait(lock, [this] { return batch_->pending == 0; });
  if (batch_->first_error != nullptr) {
    std::exception_ptr error = batch_->first_error;
    batch_->first_error = nullptr;
    std::rethrow_exception(error);
  }
}

int ShardCount(size_t total_items, int max_shards,
               size_t min_items_per_shard) {
  if (max_shards <= 1) return 1;
  const size_t cap = std::max<size_t>(1, total_items / min_items_per_shard);
  return static_cast<int>(
      std::min<size_t>(static_cast<size_t>(max_shards), cap));
}

std::pair<size_t, size_t> ShardRange(size_t begin, size_t end,
                                     int num_shards, int shard) {
  const size_t total = end - begin;
  const auto shards = static_cast<size_t>(num_shards);
  const auto s = static_cast<size_t>(shard);
  const size_t chunk = total / shards;
  const size_t remainder = total % shards;
  const size_t lo = begin + s * chunk + std::min(s, remainder);
  const size_t extent = chunk + (s < remainder ? 1 : 0);
  return {lo, lo + extent};
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 int num_shards,
                 const std::function<void(int, size_t, size_t)>& fn) {
  if (begin >= end || num_shards < 1) return;
  num_shards = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_shards), end - begin));
  if (pool == nullptr || pool->num_threads() <= 1 || num_shards == 1) {
    for (int s = 0; s < num_shards; ++s) {
      const auto [lo, hi] = ShardRange(begin, end, num_shards, s);
      fn(s, lo, hi);
    }
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const auto [lo, hi] = ShardRange(begin, end, num_shards, s);
    tasks.push_back([&fn, s, lo = lo, hi = hi] { fn(s, lo, hi); });
  }
  pool->SubmitBatch(std::move(tasks)).Wait();
}

}  // namespace flipper
