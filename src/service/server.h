// Server: the long-lived flipper mining daemon. Binds a unix-domain
// stream socket, mmaps its configured stores once (StoreRegistry) and
// serves framed requests (protocol.h): `mine` queries run through the
// re-entrant miner over the shared store views, behind FIFO admission
// control (QueryScheduler) and a fingerprint-keyed result cache
// (ResultCache).
//
// Threading: one accept thread plus one thread per live connection; a
// connection serves its requests serially, so query concurrency equals
// client connection concurrency, capped by the scheduler. Queries start
// no threads of their own: the daemon owns one ThreadPool, sized to the
// hardware threads, that every query's counting shards and every store
// (re)load's view build borrow — each query within its own thread
// budget, joining only its own batches — and one HangupWatcher thread
// for all in-flight queries. Idle, the daemon holds the main, accept
// and watcher threads plus the pool's workers. Each mine query gets its
// own trace::Session (attached for the duration, so concurrent traced
// queries can never interleave spans) and its own MetricsRegistry
// (which counts only the query's own pool tasks); the daemon folds
// per-query latency and counters into one aggregate registry whose
// JSON — p50/p95 latency histograms included — answers the `stats`
// verb.
//
// Robustness: every mine query runs under a per-query CancelToken.
// The token fires when the query's deadline (`deadline_ms` request
// param, clamped by ServerOptions) lapses, when the client hangs up
// mid-mine (the watcher blocks in one poll(2) over every running
// query's connection fd and fires the token on the peer's hang-up, so
// abandoned queries release their scheduler slot instead of burning it
// to completion; a finished query unregisters without waiting for it),
// or when the daemon drains. Frame I/O carries poll() deadlines so a
// wedged peer cannot pin a connection thread forever.
//
// Shutdown: a `shutdown` request (or Stop()) ends the accept loop,
// then drains gracefully — in-flight queries get drain_grace_ms to
// finish before the drain token cancels them — and joins all threads;
// Wait() returns once a shutdown has been requested. Finished
// connection threads are reaped as the accept loop runs, so a
// long-lived daemon never accumulates dead threads.

#ifndef FLIPPER_SERVICE_SERVER_H_
#define FLIPPER_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pipeline_metrics.h"
#include "service/hangup_watcher.h"
#include "service/protocol.h"
#include "service/query_scheduler.h"
#include "service/result_cache.h"
#include "service/store_registry.h"

namespace flipper {
namespace service {

struct ServerOptions {
  std::string socket_path;
  /// Mining queries executing at once; more wait FIFO.
  int max_concurrent = 8;
  /// Waiting-room size; arrivals beyond it get `error overloaded`.
  int max_queued = 64;
  /// Result-cache budget over rendered body bytes (0 disables).
  size_t cache_bytes = 64u << 20;
  /// Payload-validate stores on open/reload.
  bool validate_stores = true;
  /// Deadline applied to mine queries that do not send their own
  /// `deadline_ms` param (0 = none).
  int default_deadline_ms = 0;
  /// Upper clamp on any query deadline; 0 = unlimited. When set, even
  /// queries that sent no deadline are bounded by it.
  int max_deadline_ms = 0;
  /// How long Stop() lets in-flight queries finish before the drain
  /// token cancels them.
  int drain_grace_ms = 5000;
  /// Per-call bound on socket reads/writes once a frame has started
  /// (0 = unbounded). Idle waits between requests are never bounded.
  int io_timeout_ms = 30000;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a store before or after Start().
  Status AddStore(const std::string& name, const std::string& path);

  /// Binds + listens on the socket and spawns the accept loop.
  Status Start();

  /// Blocks until a shutdown has been requested (the `shutdown` verb
  /// or Stop()), then tears the server down. Safe to call once.
  void Wait();

  /// Requests shutdown and tears everything down: closes the listen
  /// socket, unblocks live connections, joins all threads. Idempotent.
  void Stop();

  const std::string& socket_path() const {
    return options_.socket_path;
  }

  /// The daemon's aggregate metrics (latency histogram, query/cache
  /// counters) — also what `stats` serves.
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  void AcceptLoop();
  void ServeConnection(uint64_t conn_id, int fd);
  /// Joins connection threads that have already finished. Requires
  /// conn_mu_; joins complete immediately because finished threads
  /// registered themselves only after leaving ServeConnection's body.
  void ReapFinishedLocked();

  Response Handle(const Request& request, int fd);
  Response HandleMine(const Request& request, int fd);
  Response HandlePing();
  Response HandleStats();
  Response HandleList();

  ServerOptions options_;
  /// The daemon's one counting pool, lent to every query and every
  /// store (re)load; declared first so it outlives its borrowers.
  ThreadPool pool_;
  /// Fires a running query's token when its client hangs up.
  HangupWatcher watcher_;
  StoreRegistry registry_;
  ResultCache cache_;
  QueryScheduler scheduler_;
  MetricsRegistry metrics_;
  /// Fires when the daemon drains; every query token chains to it.
  CancelToken drain_token_;
  WallTimer uptime_timer_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conn_mu_;
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::vector<uint64_t> finished_conn_ids_;
  std::unordered_set<int> conn_fds_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool torn_down_ = false;
};

}  // namespace service
}  // namespace flipper

#endif  // FLIPPER_SERVICE_SERVER_H_
