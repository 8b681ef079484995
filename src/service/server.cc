#include "service/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "service/mine_service.h"

namespace flipper {
namespace service {
namespace {

Response ErrorResponse(const Status& status) {
  Response response;
  response.ok = false;
  response.error = status.ToString();
  return response;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      registry_(StoreRegistry::Options{options.validate_stores}, &pool_),
      cache_(options.cache_bytes),
      scheduler_(options.max_concurrent, options.max_queued) {}

Server::~Server() { Stop(); }

Status Server::AddStore(const std::string& name,
                        const std::string& path) {
  return registry_.Add(name, path);
}

Status Server::Start() {
#ifdef _WIN32
  return Status::FailedPrecondition(
      "the serve daemon requires POSIX unix-domain sockets");
#else
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "socket path must be 1.." +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes, got '" +
        options_.socket_path + "'");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  // A stale socket file from a dead daemon would make bind fail;
  // unlink first (a live daemon would still hold the listen fd, and
  // two daemons on one path is an operator error either way).
  ::unlink(options_.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::IoError(
        "bind(" + options_.socket_path + ") failed: " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const Status status = Status::IoError(
        std::string("listen() failed: ") + std::strerror(errno));
    ::close(fd);
    ::unlink(options_.socket_path.c_str());
    return status;
  }
  listen_fd_ = fd;
  uptime_timer_.Restart();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
#endif
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
  }
  Stop();
}

void Server::Stop() {
#ifndef _WIN32
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
    if (torn_down_) {
      shutdown_cv_.notify_all();
      return;
    }
    torn_down_ = true;
  }
  shutdown_cv_.notify_all();
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    // shutdown() unblocks a blocked accept(); close() releases the fd.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  // Graceful drain: no new connections can arrive now; give in-flight
  // queries the grace period to finish on their own before the drain
  // token cancels the stragglers.
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(
          options_.drain_grace_ms > 0 ? options_.drain_grace_ms : 0);
  while (std::chrono::steady_clock::now() < drain_deadline) {
    const QueryScheduler::Stats sched = scheduler_.stats();
    if (sched.running == 0 && sched.waiting == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  drain_token_.Cancel();
  scheduler_.Shutdown();
  {
    // Unblock every connection thread stuck in read().
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::unordered_map<uint64_t, std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
    finished_conn_ids_.clear();
  }
  for (auto& [id, t] : conns) {
    if (t.joinable()) t.join();
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
#endif
}

#ifndef _WIN32

void Server::ReapFinishedLocked() {
  for (uint64_t id : finished_conn_ids_) {
    auto it = conn_threads_.find(id);
    if (it == conn_threads_.end()) continue;
    if (it->second.joinable()) it->second.join();
    conn_threads_.erase(it);
  }
  finished_conn_ids_.clear();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed: shutting down
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    // Reap finished connection threads here so a long-lived daemon
    // under connection churn holds threads only for live connections.
    ReapFinishedLocked();
    const uint64_t id = next_conn_id_++;
    conn_fds_.insert(fd);
    metrics_.AddCounter("connections.opened", 1);
    conn_threads_.emplace(
        id, std::thread([this, id, fd] { ServeConnection(id, fd); }));
  }
}

void Server::ServeConnection(uint64_t conn_id, int fd) {
  FdStream stream(fd);
  FrameIo io;
  io.idle_timeout_ms = 0;  // keep-alive: idle connections are free
  io.io_timeout_ms = options_.io_timeout_ms;
  while (true) {
    auto payload = ReadFrame(&stream, io);
    if (!payload.ok()) break;  // clean EOF, torn frame, or shutdown
    Response response;
    bool is_shutdown = false;
    auto request = DecodeRequest(*payload);
    if (!request.ok()) {
      response = ErrorResponse(request.status());
    } else {
      is_shutdown = request->verb == "shutdown";
      response = Handle(*request, fd);
    }
    const bool wrote =
        WriteFrame(&stream, EncodeResponse(response), io).ok();
    if (is_shutdown) {
      // The acknowledgment frame is on the wire; only now wake Wait()
      // so teardown can't race the client out of its response.
      {
        std::lock_guard<std::mutex> lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      break;
    }
    if (!wrote) break;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Unregister before closing: once closed, accept() may hand the
    // same fd number to a new connection, whose registration an erase
    // after the close would drop — and Stop() could then never
    // shut that connection down.
    conn_fds_.erase(fd);
    ::close(fd);
    metrics_.AddCounter("connections.closed", 1);
    // Registering as finished is this thread's last touch of server
    // state; the accept loop (or Stop) joins the thread object later.
    finished_conn_ids_.push_back(conn_id);
  }
}

#else

void Server::AcceptLoop() {}
void Server::ServeConnection(uint64_t, int) {}
void Server::ReapFinishedLocked() {}

#endif  // !_WIN32

Response Server::Handle(const Request& request, int fd) {
  if (request.verb == "mine") return HandleMine(request, fd);
  if (request.verb == "stats") return HandleStats();
  if (request.verb == "list") return HandleList();
  if (request.verb == "ping") return HandlePing();
  if (request.verb == "shutdown") {
    // ServeConnection triggers the actual shutdown after this
    // acknowledgment has been written back to the client.
    Response response;
    response.ok = true;
    return response;
  }
  return ErrorResponse(Status::InvalidArgument(
      "unknown verb '" + request.verb +
      "' (expected mine|stats|ping|list|shutdown)"));
}

Response Server::HandlePing() {
  // Readiness probes assert the schema version instead of trusting any
  // `ok`; uptime lets operators spot silent restarts.
  Response response;
  response.ok = true;
  response.meta.emplace_back("schema",
                             std::to_string(kProtocolSchemaVersion));
  response.meta.emplace_back(
      "uptime_s", FormatDouble(uptime_timer_.ElapsedSeconds(), 3));
  return response;
}

Response Server::HandleMine(const Request& request, int fd) {
#ifdef _WIN32
  (void)fd;
  return ErrorResponse(Status::FailedPrecondition(
      "the serve daemon requires POSIX unix-domain sockets"));
#else
  WallTimer timer;
  metrics_.AddCounter("queries.total", 1);

  const std::string store = request.Param("store");
  if (store.empty()) {
    metrics_.AddCounter("queries.failed", 1);
    return ErrorResponse(Status::InvalidArgument(
        "mine needs a `store <name>` parameter"));
  }
  MineRequest mine;
  for (const auto& [key, value] : request.params) {
    // Request-level params that are not mine option keys.
    if (key == "store" || key == "cache" || key == "deadline_ms") {
      continue;
    }
    const Status applied = ApplyMineOption(&mine, key, value);
    if (!applied.ok()) {
      metrics_.AddCounter("queries.failed", 1);
      return ErrorResponse(applied);
    }
  }
  const bool use_cache = request.Param("cache", "on") != "off";

  // Deadline: the client's `deadline_ms` (0 = none) over the server
  // default, clamped from above by the server maximum.
  int64_t deadline_ms = options_.default_deadline_ms;
  const std::string deadline_text = request.Param("deadline_ms");
  if (!deadline_text.empty()) {
    auto parsed = ParseInt(deadline_text);
    if (!parsed.ok() || *parsed < 0) {
      metrics_.AddCounter("queries.failed", 1);
      return ErrorResponse(Status::InvalidArgument(
          "deadline_ms must be a non-negative integer, got '" +
          deadline_text + "'"));
    }
    deadline_ms = *parsed;
  }
  if (options_.max_deadline_ms > 0 &&
      (deadline_ms == 0 || deadline_ms > options_.max_deadline_ms)) {
    deadline_ms = options_.max_deadline_ms;
  }

  // The query's cancellation token: fires on deadline lapse, client
  // hangup (the watcher below), or daemon drain.
  CancelToken token;
  token.ChainTo(&drain_token_);
  auto admit_deadline = std::chrono::steady_clock::time_point::max();
  if (deadline_ms > 0) {
    token.SetDeadlineAfterMs(deadline_ms);
    admit_deadline = token.deadline();
  }

  // Admission: FIFO-fair, bounded waiting room. Parse errors above
  // never consume a slot; a deadline that lapses while queued leaves
  // the waiting room without ever running.
  auto ticket = scheduler_.Admit(admit_deadline);
  if (!ticket.ok()) {
    const StatusCode code = ticket.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      metrics_.AddCounter("queries.deadline_exceeded", 1);
    } else if (code == StatusCode::kCancelled) {
      metrics_.AddCounter("queries.cancelled", 1);
    } else {
      metrics_.AddCounter("queries.rejected", 1);
    }
    return ErrorResponse(ticket.status());
  }

  // Resolve the store under admission (a changed file reloads here, so
  // the reload cost is paced like any other query work).
  auto entry = registry_.Get(store);
  if (!entry.ok()) {
    metrics_.AddCounter("queries.failed", 1);
    return ErrorResponse(entry.status());
  }
  const StoreEntry& e = **entry;

  const std::string cache_key =
      e.fingerprint + "|" + CanonicalCacheKey(mine);
  Response response;
  response.ok = true;
  response.meta.emplace_back("store", store);
  response.meta.emplace_back("fingerprint", e.fingerprint);

  if (use_cache) {
    if (auto cached = cache_.Get(cache_key)) {
      metrics_.AddCounter("cache.hits", 1);
      metrics_.AddCounter("queries.ok", 1);
      const double ms = timer.ElapsedSeconds() * 1e3;
      metrics_.ObserveMs("query.latency_ms", ms);
      response.meta.emplace_back("cache", "hit");
      response.meta.emplace_back(
          "patterns", std::to_string(cached->num_patterns));
      response.meta.emplace_back("latency_ms", FormatDouble(ms, 3));
      response.body = std::move(cached->body);
      return response;
    }
    metrics_.AddCounter("cache.misses", 1);
  }

  mine.cancel = &token;

  mine.pool = &pool_;

  // The query's own observability context: a trace session attached
  // for the duration (so concurrent queries' span sites stay isolated)
  // and a per-query registry the miner fills. Neither is read: the
  // session is never enabled, and the registry is dropped when the
  // query returns, so only the daemon counters and `query.latency_ms`
  // below reach `stats`. The hangup watcher cancels the token — and
  // thereby the run — the moment the client disconnects; the
  // registration ends before this connection's fd can close.
  trace::Session session;
  MetricsRegistry query_metrics;
  bool disconnected = false;
  Result<MineOutcome> outcome = [&] {
    HangupWatcher::Registration watch = watcher_.Watch(fd, &token);
    trace::SessionScope scope(&session);
    auto result = ExecuteMineRequest(e.reader.db(), e.reader.taxonomy(),
                                     &e.reader.dict(), &e.views, mine,
                                     &query_metrics);
    disconnected = watch.Release();
    return result;
  }();
  if (!outcome.ok()) {
    // Deadline / abandonment outcomes are expected operation, not
    // daemon faults: they get their own counters and never count as
    // `queries.failed` (the smoke script asserts failed == 0).
    const StatusCode code = outcome.status().code();
    if (disconnected) {
      metrics_.AddCounter("queries.disconnected", 1);
      metrics_.AddCounter("queries.cancelled", 1);
    } else if (code == StatusCode::kDeadlineExceeded) {
      metrics_.AddCounter("queries.deadline_exceeded", 1);
    } else if (code == StatusCode::kCancelled) {
      metrics_.AddCounter("queries.cancelled", 1);
    } else {
      metrics_.AddCounter("queries.failed", 1);
    }
    return ErrorResponse(outcome.status());
  }
  if (use_cache) {
    ResultCache::CachedResult cached;
    cached.body = outcome->body;
    cached.num_patterns = outcome->num_patterns;
    cache_.Put(cache_key, std::move(cached));
  }
  metrics_.AddCounter("queries.ok", 1);
  metrics_.AddCounter(
      "patterns.total",
      static_cast<int64_t>(outcome->num_patterns));
  const double ms = timer.ElapsedSeconds() * 1e3;
  metrics_.ObserveMs("query.latency_ms", ms);
  response.meta.emplace_back("cache", use_cache ? "miss" : "off");
  response.meta.emplace_back("patterns",
                             std::to_string(outcome->num_patterns));
  response.meta.emplace_back("latency_ms", FormatDouble(ms, 3));
  response.body = std::move(outcome->body);
  return response;
#endif  // _WIN32
}

Response Server::HandleStats() {
  const ResultCache::Stats cache_stats = cache_.stats();
  metrics_.SetGauge("cache.entries",
                    static_cast<double>(cache_stats.entries));
  metrics_.SetGauge("cache.bytes",
                    static_cast<double>(cache_stats.bytes));
  metrics_.SetGauge("cache.evictions",
                    static_cast<double>(cache_stats.evictions));
  const QueryScheduler::Stats sched = scheduler_.stats();
  metrics_.SetGauge("scheduler.running",
                    static_cast<double>(sched.running));
  metrics_.SetGauge("scheduler.waiting",
                    static_cast<double>(sched.waiting));
  metrics_.SetGauge("scheduler.admitted",
                    static_cast<double>(sched.admitted));
  metrics_.SetGauge("scheduler.rejected",
                    static_cast<double>(sched.rejected));
  metrics_.SetGauge("scheduler.timed_out",
                    static_cast<double>(sched.timed_out));
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    metrics_.SetGauge(
        "connections.live",
        static_cast<double>(conn_fds_.size()));
  }
  std::ostringstream body;
  metrics_.WriteJson(body);
  Response response;
  response.ok = true;
  response.body = std::move(body).str();
  return response;
}

Response Server::HandleList() {
  Response response;
  response.ok = true;
  std::string body;
  for (const std::string& name : registry_.Names()) {
    auto entry = registry_.Get(name);
    if (!entry.ok()) {
      body += name + " error " + entry.status().ToString() + "\n";
      continue;
    }
    body += name + " " + (*entry)->fingerprint + " " +
            std::to_string((*entry)->reader.header().num_transactions) +
            " txns, height " +
            std::to_string((*entry)->reader.taxonomy().height()) + "\n";
  }
  response.body = std::move(body);
  return response;
}

}  // namespace service
}  // namespace flipper
