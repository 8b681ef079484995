// Server: the long-lived flipper mining daemon. Binds a unix-domain
// stream socket, mmaps its configured stores once (StoreRegistry) and
// serves framed requests (protocol.h): `mine` queries run through the
// re-entrant miner over the shared store views, behind FIFO admission
// control and a fingerprint-keyed, two-tier result cache (ResultCache).
//
// Threading: one event-loop thread blocks in a single poll(2) over the
// listen fd, a wake pipe and every connection; it accepts, assembles
// request frames and writes every response, and a connection serves
// its requests serially. The loop answers `ping`, `stats`, `shutdown`,
// malformed requests and a `mine` whose store file is unchanged and
// whose key is cached itself, so a cache hit never changes threads.
// The rest — a miss, `cache off`, a stale store (which reloads) and
// `list` — waits in a FIFO of at most max_queued requests; while fewer
// than max_concurrent run, the loop starts a thread for the oldest,
// which runs it, hands the encoded response back through the wake pipe
// and exits, and the loop joins it. Queries count on the daemon's one
// ThreadPool (sized to the hardware threads, also lent to every store
// (re)load), each within its own thread budget. Idle, the daemon holds
// the caller's thread, the loop and the pool's workers however many
// connections are open; busy, at most max_concurrent more. Each mine
// query gets its own trace::Session and MetricsRegistry, so concurrent
// queries never interleave spans or pool counts; the daemon folds
// per-query latency and counters into one aggregate registry whose
// JSON answers the `stats` verb.
//
// Miss path (a query thread): look the full key up again, then the
// spec's pattern list (fingerprint|MiningSpecKey); render a cached
// list, or mine the spec and cache its list first; cache the body.
// `cache` meta: `hit` is a body copied on the loop, `miss` a body
// rendered on a query thread, `off` a query that bypassed both tiers
// and mined. Single-flight: a miss whose spec is being mined waits on a
// condition variable for that mine, its own deadline, or the loop's
// cancel (every cancel of a running query and the drain notify). A
// failed or cancelled mine lands no list; a waiter then mines under
// its own token. Counters: `cache.mines` (mines run to fill the cache),
// `cache.pattern_waits` (misses that joined a mine in flight) and
// `cache.pattern_hits` (misses answered from a list another mined).
//
// Robustness: every mine query runs under a CancelToken that fires
// when its deadline (`deadline_ms`, clamped by ServerOptions) lapses,
// when the client hangs up mid-mine, or when the daemon drains. While
// a request is queued or running, the loop watches its connection only
// for a hang-up: POLLRDHUP on Linux, so a pipelined next request never
// reads as one; elsewhere POLLIN plus a peek, where pipelined bytes
// stop the POLLIN watch. A hang-up cancels a running query, freeing
// its slot, and drops a queued one. A queued request whose deadline
// lapses is answered DeadlineExceeded at its deadline (the poll
// timeout is the nearest one). Only the loop touches connection fds,
// and a finished query finds its connection by id, so a reused fd
// number never receives another query's reply. accept() failing for
// lack of fds pauses accepting until a connection closes or a short
// retry passes. Start() refuses a path a live daemon answers on.
//
// Shutdown: a `shutdown` request is acknowledged, then wakes Wait(),
// which calls Stop(). Stop() closes the listen socket and gives
// running and queued queries drain_grace_ms; then the drain token
// cancels the running ones and queued ones fail with Cancelled. Once
// every query thread has returned, the loop makes one last
// non-blocking write of each pending reply and closes every
// connection.

#ifndef FLIPPER_SERVICE_SERVER_H_
#define FLIPPER_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pipeline_metrics.h"
#include "service/mine_service.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "service/store_registry.h"

namespace flipper {
namespace service {

struct ServerOptions {
  std::string socket_path;
  /// Queued requests (mine misses and `list`) running at once; more
  /// wait FIFO.
  int max_concurrent = 8;
  /// Waiting-room size; arrivals beyond it get `error overloaded`.
  int max_queued = 64;
  /// Result-cache budget over rendered bodies and mined pattern lists
  /// together (0 disables).
  size_t cache_bytes = 64u << 20;
  /// Payload-validate stores on open/reload.
  bool validate_stores = true;
  /// Deadline applied to mine queries that do not send their own
  /// `deadline_ms` param (0 = none).
  int default_deadline_ms = 0;
  /// Upper clamp on any query deadline; 0 = unlimited. When set, even
  /// queries that sent no deadline are bounded by it.
  int max_deadline_ms = 0;
  /// How long Stop() lets running and queued queries finish before the
  /// drain token cancels them.
  int drain_grace_ms = 5000;
  /// A started request frame or a pending response write that makes no
  /// progress for this long drops the connection (0 = unbounded). Idle
  /// waits between requests are never bounded.
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

  /// Binds + listens on the socket and starts the event loop. Fails
  /// with FailedPrecondition when a live daemon answers on the path.
  Status Start();

  /// Blocks until a shutdown has been requested (the `shutdown` verb
  /// or Stop()), then tears the server down. Safe to call once.
  void Wait();

  /// Requests shutdown and tears everything down: drains, closes every
  /// connection and the listen socket, joins the loop. Idempotent.
  void Stop();

  const std::string& socket_path() const {
    return options_.socket_path;
  }

  /// The daemon's aggregate metrics (latency histogram, query/cache
  /// counters) — also what `stats` serves.
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// A request the loop cannot answer without blocking: queued FIFO,
  /// then run on a thread of its own.
  struct Query {
    uint64_t conn_id = 0;
    /// A `list` request; otherwise a mine.
    bool list = false;
    std::string store;
    MineRequest mine;
    bool use_cache = true;
    CancelToken token;
    /// Started on arrival, so latency covers the queue wait.
    WallTimer timer;
    /// Set by the loop when the connection closed under the query.
    bool hung_up = false;
    std::thread thread;
    /// Written by the query thread; the loop reads them after the join.
    Status outcome;
    std::string frame;
  };

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    /// Bytes read but not yet dispatched (a partial or pipelined frame).
    std::string in;
    /// The response frame being written, from offset `written`.
    std::string out;
    size_t written = 0;
    /// Its queued or running request, if any.
    Query* query = nullptr;
    /// Last read or write progress; bounds a stalled frame or write.
    Clock::time_point last_progress;
    /// Close once `out` is written, then request the daemon shutdown.
    bool shutdown_after_write = false;
    /// Platforms without POLLRDHUP: POLLIN still watched for a hang-up
    /// while a request is in flight (pipelined bytes clear it).
    bool watch_readable = true;
  };

  void Loop();
  void Accept();
  /// Handles poll events on a connection; may close it.
  void OnEvents(Connection& conn, short revents);
  /// Writes pending output and dispatches buffered frames until the
  /// connection must wait for the network or a query; may close it.
  void Pump(Connection& conn);
  /// Writes what the socket takes now; false on a write error.
  bool Flush(Connection& conn);
  void CloseConnection(Connection& conn);
  void Dispatch(Connection& conn, std::string_view payload);
  void Reply(Connection& conn, const Response& response);

  void Enqueue(Connection& conn, std::unique_ptr<Query> query);
  void StartQueued();
  void FinishQueries();
  /// Counts `status` against a query that never ran and answers its
  /// connection with it.
  void FailQuery(Query& query, const Status& status);
  /// A query thread's body.
  void RunQuery(Query* query);
  void CountFailure(const Status& status, bool disconnected);
  void RequestShutdown();
  void Wake();

  void HandleMine(Connection& conn, const Request& request);
  /// The cached body for `key` as a hit response, or nullopt.
  std::optional<Response> CachedMine(const std::string& store,
                                     const StoreEntry& entry,
                                     const std::string& key,
                                     const WallTimer& timer);
  /// Runs a queued mine on its query thread.
  Response RunMine(Query& query);
  /// The spec's pattern list: cached, landed by a mine in flight that
  /// the query waits for, or mined by the query itself (single-flight).
  Result<ResultCache::PatternList> SharedPatterns(Query& query,
                                                  const StoreEntry& entry);
  /// Mines the query's spec on the calling thread.
  Result<ResultCache::PatternList> Mine(Query& query,
                                        const StoreEntry& entry);
  struct Flight;
  /// Ends `flight` with `patterns` (null: failed) and wakes its waiters.
  void Land(const std::string& spec, Flight& flight,
            ResultCache::PatternList patterns);
  /// Wakes every query waiting on a mine in flight, so one whose token
  /// just fired returns.
  void WakeWaiters();
  Response HandlePing();
  Response HandleStats();
  Response HandleList();

  ServerOptions options_;
  /// The daemon's one counting pool, lent to every query and every
  /// store (re)load; declared first so it outlives its borrowers.
  ThreadPool pool_;
  StoreRegistry registry_;
  ResultCache cache_;
  MetricsRegistry metrics_;
  /// Fires when the daemon drains; every query token chains to it.
  CancelToken drain_token_;
  WallTimer uptime_timer_;

  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::atomic<bool> stopping_{false};

  // Owned by the loop thread.
  std::unordered_map<uint64_t, Connection> conns_;
  uint64_t next_conn_id_ = 0;
  std::deque<std::unique_ptr<Query>> queue_;
  std::vector<std::unique_ptr<Query>> running_;
  /// Set once the drain cancels: queued and later queries fail.
  bool closed_ = false;
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t timed_out_ = 0;
  /// accept() is not retried before this (it failed for lack of fds).
  Clock::time_point accept_paused_until_{};

  /// A mine in flight for one spec key; misses on that spec wait on it.
  struct Flight {
    bool done = false;
    /// The mined list; null when the mine failed or was cancelled.
    ResultCache::PatternList patterns;
  };
  std::mutex flights_mu_;
  std::condition_variable flights_cv_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  /// Queries whose threads have finished, for the loop to join.
  std::mutex finished_mu_;
  std::vector<Query*> finished_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool torn_down_ = false;

  /// Declared last: the loop uses every member above.
  std::thread loop_thread_;
};

}  // namespace service
}  // namespace flipper

#endif  // FLIPPER_SERVICE_SERVER_H_
