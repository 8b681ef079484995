#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <sstream>
#include <system_error>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "common/string_util.h"
#include "common/trace.h"

namespace flipper {
namespace service {
namespace {

/// How long accept() rests after failing for lack of fds, unless a
/// connection closes first.
constexpr std::chrono::milliseconds kAcceptRetry{100};

Response ErrorResponse(const Status& status) {
  Response response;
  response.ok = false;
  response.error = status.ToString();
  return response;
}

/// `response` as one wire frame; a body past the frame cap is answered
/// with that error instead.
std::string FrameOf(const Response& response) {
  Result<std::string> frame = EncodeResponseFrame(response);
  if (frame.ok()) return std::move(frame.value());
  return std::move(EncodeResponseFrame(ErrorResponse(frame.status())).value());
}

std::string CacheKey(const StoreEntry& entry, const MineRequest& mine) {
  return entry.fingerprint + "|" + CanonicalCacheKey(mine);
}

Response MineResponse(const std::string& store, const StoreEntry& entry) {
  Response response;
  response.ok = true;
  response.meta.emplace_back("store", store);
  response.meta.emplace_back("fingerprint", entry.fingerprint);
  return response;
}

#ifndef _WIN32

// POLLHUP, POLLERR and POLLNVAL are reported whatever is requested.
#ifdef POLLRDHUP
constexpr short kHangupEvents = POLLRDHUP;
#else
constexpr short kHangupEvents = 0;
#endif

void SetNonBlockingCloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

/// Unlinks a socket file that no daemon answers on any more, so bind()
/// can reuse the path. Fails when a live daemon still answers on it:
/// unlinking its socket would leave it running but unreachable.
Status ClearStaleSocket(const sockaddr_un& addr) {
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  // Non-blocking, so a live daemon with a full backlog answers EAGAIN
  // instead of blocking the probe.
  SetNonBlockingCloexec(probe);
  const int connected = ::connect(
      probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int error = errno;
  ::close(probe);
  if (connected == 0 || error == EAGAIN || error == EINPROGRESS) {
    return Status::FailedPrecondition(
        std::string("another daemon is serving on ") + addr.sun_path);
  }
  if (error == ENOENT) return Status::OK();
  if (error != ECONNREFUSED) {
    return Status::IoError(std::string("cannot probe ") + addr.sun_path +
                           ": " + std::strerror(error));
  }
  ::unlink(addr.sun_path);
  return Status::OK();
}

#endif  // !_WIN32

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      registry_(StoreRegistry::Options{options.validate_stores}, &pool_),
      cache_(options.cache_bytes) {
  options_.max_concurrent = std::max(1, options_.max_concurrent);
  options_.max_queued = std::max(0, options_.max_queued);
}

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
  if (loop_thread_.joinable()) {
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
  FLIPPER_RETURN_IF_ERROR(ClearStaleSocket(addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::IoError(
        "bind(" + options_.socket_path + ") failed: " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  int wake[2];
  const char* failed = ::listen(fd, 64) != 0 ? "listen"
                       : ::pipe(wake) != 0  ? "pipe"
                                            : nullptr;
  if (failed != nullptr) {
    const Status status = Status::IoError(std::string(failed) +
                                          "() failed: " +
                                          std::strerror(errno));
    ::close(fd);
    ::unlink(options_.socket_path.c_str());
    return status;
  }
  // Non-blocking: a connection that vanishes between poll() and
  // accept() must not block the loop.
  SetNonBlockingCloexec(fd);
  SetNonBlockingCloexec(wake[0]);
  SetNonBlockingCloexec(wake[1]);
  listen_fd_ = fd;
  wake_read_ = wake[0];
  wake_write_ = wake[1];
  uptime_timer_.Restart();
  loop_thread_ = std::thread([this] { Loop(); });
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
#ifndef _WIN32
  if (!loop_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_relaxed);
  Wake();
  loop_thread_.join();
  ::close(wake_read_);
  ::close(wake_write_);
  ::unlink(options_.socket_path.c_str());
#endif
}

#ifndef _WIN32

void Server::Wake() {
  const char byte = 0;
  // A full pipe already holds a pending wake-up.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
}

void Server::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::Loop() {
  const auto io_timeout = std::chrono::milliseconds(options_.io_timeout_ms);
  // A started frame or a pending write is bounded by io_timeout_ms; an
  // idle connection, or one waiting on its query, is not.
  const auto stalls = [&](const Connection& conn) {
    return options_.io_timeout_ms > 0 &&
           (!conn.out.empty() || (conn.query == nullptr && !conn.in.empty()));
  };
  bool draining = false;
  Clock::time_point drain_deadline;
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;  // ids[i] was polled as fds[i + 2]
  for (;;) {
    Clock::time_point now = Clock::now();
    if (!draining && stopping_.load(std::memory_order_relaxed)) {
      // Refuse new connections; the queries in hand get the grace.
      draining = true;
      ::close(listen_fd_);
      listen_fd_ = -1;
      drain_deadline =
          now + std::chrono::milliseconds(std::max(0, options_.drain_grace_ms));
    }
    if (draining && !closed_ &&
        ((running_.empty() && queue_.empty()) || now >= drain_deadline)) {
      closed_ = true;
      drain_token_.Cancel();
      WakeWaiters();
      std::deque<std::unique_ptr<Query>> queued = std::move(queue_);
      queue_.clear();
      for (auto& query : queued) {
        FailQuery(*query, Status::Cancelled("cancelled: daemon draining"));
      }
    }
    if (closed_ && running_.empty()) break;

    // Poll until the nearest deadline: a queued query's, a stalled
    // connection's, the accept retry or the drain grace.
    Clock::time_point wake_at = Clock::time_point::max();
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{wake_read_, POLLIN, 0});
    const bool accepting = listen_fd_ >= 0 && now >= accept_paused_until_;
    fds.push_back(pollfd{accepting ? listen_fd_ : -1, POLLIN, 0});
    if (listen_fd_ >= 0 && !accepting) wake_at = accept_paused_until_;
    if (draining && !closed_) wake_at = std::min(wake_at, drain_deadline);
    for (const auto& query : queue_) {
      if (query->token.has_deadline()) {
        wake_at = std::min(wake_at, query->token.deadline());
      }
    }
    for (const auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn.out.empty()) {
        events = POLLOUT;
      } else if (conn.query != nullptr) {
        // Watch only for a hang-up while the request is in flight.
        events = kHangupEvents;
        if (kHangupEvents == 0 && conn.watch_readable) events |= POLLIN;
      }
      if (stalls(conn)) {
        wake_at = std::min(wake_at, conn.last_progress + io_timeout);
      }
      fds.push_back(pollfd{conn.fd, events, 0});
      ids.push_back(id);
    }
    int timeout_ms = -1;
    if (wake_at != Clock::time_point::max()) {
      const auto left =
          std::chrono::ceil<std::chrono::milliseconds>(wake_at - now).count();
      timeout_ms = static_cast<int>(std::clamp<int64_t>(left, 0, INT_MAX));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      // Unexpected (e.g. ENOMEM): do not spin; deadlines still run below.
      std::this_thread::sleep_for(kAcceptRetry);
    }

    if (fds[0].revents != 0) {
      char buf[64];
      while (::read(wake_read_, buf, sizeof(buf)) > 0) {
      }
    }
    FinishQueries();
    if (fds[1].revents != 0) Accept();
    for (size_t i = 0; i < ids.size(); ++i) {
      const short revents = fds[i + 2].revents;
      if (revents == 0) continue;
      // By id: a connection closed in this pass may have passed its fd
      // number on to one accepted in it.
      auto it = conns_.find(ids[i]);
      if (it != conns_.end()) OnEvents(it->second, revents);
    }

    now = Clock::now();
    std::vector<std::unique_ptr<Query>> lapsed;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->token.has_deadline() && now >= (*it)->token.deadline()) {
        lapsed.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    timed_out_ += lapsed.size();
    for (auto& query : lapsed) {
      FailQuery(*query, Status::DeadlineExceeded(
                            "deadline_exceeded: deadline lapsed while queued"));
    }
    std::vector<uint64_t> stalled;
    for (const auto& [id, conn] : conns_) {
      if (stalls(conn) && now >= conn.last_progress + io_timeout) {
        stalled.push_back(id);
      }
    }
    for (uint64_t id : stalled) CloseConnection(conns_.at(id));
    StartQueued();
  }
  // Every query has returned: one last non-blocking write of what is
  // pending, then close.
  while (!conns_.empty()) {
    Connection& conn = conns_.begin()->second;
    Flush(conn);
    CloseConnection(conn);
  }
}

void Server::Accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // Out of fds (EMFILE/ENFILE) or kernel memory: the listen fd
        // stays readable, so stop polling it until a connection closes
        // or the retry passes, instead of spinning or giving up.
        accept_paused_until_ = Clock::now() + kAcceptRetry;
      }
      return;
    }
    const uint64_t id = next_conn_id_++;
    Connection& conn = conns_[id];
    conn.id = id;
    conn.fd = fd;
    metrics_.AddCounter("connections.opened", 1);
  }
}

void Server::OnEvents(Connection& conn, short revents) {
  if (!conn.out.empty()) {
    Pump(conn);  // writable, or an error the write surfaces
    return;
  }
  if (conn.query != nullptr) {
    bool gone =
        (revents & (kHangupEvents | POLLHUP | POLLERR | POLLNVAL)) != 0;
    if (!gone && (revents & POLLIN) != 0) {
      // Readable means EOF or a pipelined next request; peek to tell
      // them apart without consuming.
      char byte;
      const ssize_t n = ::recv(conn.fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n > 0) {
        conn.watch_readable = false;
      } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
        gone = true;
      }
    }
    if (gone) CloseConnection(conn);
    return;
  }
  char buf[64 << 10];
  const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  if (n <= 0) {
    // EOF, between frames or mid-frame, or a read error: the peer is
    // gone either way.
    CloseConnection(conn);
    return;
  }
  conn.in.append(buf, static_cast<size_t>(n));
  conn.last_progress = Clock::now();
  Pump(conn);
}

void Server::Pump(Connection& conn) {
  for (;;) {
    if (!conn.out.empty()) {
      const bool wrote = Flush(conn);
      if (wrote && !conn.out.empty()) return;  // socket full: POLLOUT
      if (!wrote || conn.shutdown_after_write) {
        CloseConnection(conn);
        return;
      }
    }
    if (conn.query != nullptr || conn.in.size() < kFramePrefixBytes) return;
    const uint32_t len = DecodeFrameLength(conn.in.data());
    if (len > kMaxFrameBytes) {
      CloseConnection(conn);  // protocol error
      return;
    }
    if (conn.in.size() - kFramePrefixBytes < len) return;
    const std::string payload = conn.in.substr(kFramePrefixBytes, len);
    conn.in.erase(0, kFramePrefixBytes + len);
    // Sets conn.out (answered) or conn.query (queued).
    Dispatch(conn, payload);
  }
}

bool Server::Flush(Connection& conn) {
  while (conn.written < conn.out.size()) {
    // MSG_NOSIGNAL: a peer that hung up surfaces as EPIPE, not a
    // process-killing SIGPIPE.
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.written,
               conn.out.size() - conn.written, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn.written += static_cast<size_t>(n);
    conn.last_progress = Clock::now();
  }
  conn.out.clear();
  conn.written = 0;
  return true;
}

void Server::CloseConnection(Connection& conn) {
  if (Query* query = conn.query) {
    const auto queued =
        std::find_if(queue_.begin(), queue_.end(),
                     [&](const auto& q) { return q.get() == query; });
    if (queued != queue_.end()) {
      // Nobody is left to answer: drop it.
      if (!query->list) {
        CountFailure(Status::Cancelled("cancelled: client hung up"), true);
      }
      queue_.erase(queued);
    } else {
      // Running: fire its token; its late response finds no
      // connection with this id and goes nowhere.
      query->hung_up = true;
      query->token.Cancel();
      WakeWaiters();
    }
  }
  if (conn.shutdown_after_write) RequestShutdown();
  ::close(conn.fd);
  metrics_.AddCounter("connections.closed", 1);
  accept_paused_until_ = {};  // an fd is free again
  const uint64_t id = conn.id;
  conns_.erase(id);
}

void Server::Dispatch(Connection& conn, std::string_view payload) {
  auto request = DecodeRequest(payload);
  if (!request.ok()) return Reply(conn, ErrorResponse(request.status()));
  const std::string& verb = request->verb;
  if (verb == "mine") return HandleMine(conn, *request);
  if (verb == "list") {
    auto query = std::make_unique<Query>();
    query->conn_id = conn.id;
    query->list = true;
    return Enqueue(conn, std::move(query));
  }
  if (verb == "stats") return Reply(conn, HandleStats());
  if (verb == "ping") return Reply(conn, HandlePing());
  if (verb == "shutdown") {
    // The daemon shuts down only once this acknowledgment is on the
    // wire, so teardown cannot race the client out of its response.
    conn.shutdown_after_write = true;
    Response ack;
    ack.ok = true;
    return Reply(conn, ack);
  }
  Reply(conn, ErrorResponse(Status::InvalidArgument(
                  "unknown verb '" + verb +
                  "' (expected mine|stats|ping|list|shutdown)")));
}

void Server::Reply(Connection& conn, const Response& response) {
  conn.out = FrameOf(response);
  conn.written = 0;
}

void Server::Enqueue(Connection& conn, std::unique_ptr<Query> query) {
  // FIFO admission with a bounded waiting room: a request waits when
  // others already wait or every slot is taken.
  const size_t waiting = queue_.size();
  const bool must_wait =
      waiting > 0 || running_.size() >= static_cast<size_t>(
                                            options_.max_concurrent);
  Status refusal;
  if (closed_) {
    refusal = Status::Cancelled("cancelled: daemon draining");
  } else if (must_wait &&
             waiting >= static_cast<size_t>(options_.max_queued)) {
    ++rejected_;
    refusal = Status::ResourceExhausted(
        "overloaded: " + std::to_string(running_.size()) + " running, " +
        std::to_string(waiting) + " queued (queue cap " +
        std::to_string(options_.max_queued) + ")");
  }
  if (!refusal.ok()) {
    if (!query->list) {
      metrics_.AddCounter(closed_ ? "queries.cancelled" : "queries.rejected",
                          1);
    }
    return Reply(conn, ErrorResponse(refusal));
  }
  conn.query = query.get();
  queue_.push_back(std::move(query));
}

void Server::StartQueued() {
  while (!queue_.empty() &&
         running_.size() < static_cast<size_t>(options_.max_concurrent)) {
    std::unique_ptr<Query> query = std::move(queue_.front());
    queue_.pop_front();
    ++admitted_;
    Query* raw = query.get();
    try {
      raw->thread = std::thread([this, raw] { RunQuery(raw); });
    } catch (const std::system_error& e) {
      FailQuery(*raw, Status::ResourceExhausted(
                          std::string("cannot start a query thread: ") +
                          e.what()));
      continue;
    }
    running_.push_back(std::move(query));
  }
}

void Server::FinishQueries() {
  std::vector<Query*> done;
  {
    std::lock_guard<std::mutex> lock(finished_mu_);
    done.swap(finished_);
  }
  for (Query* raw : done) {
    const auto it =
        std::find_if(running_.begin(), running_.end(),
                     [&](const auto& q) { return q.get() == raw; });
    std::unique_ptr<Query> query = std::move(*it);
    running_.erase(it);
    query->thread.join();
    if (!query->list && !query->outcome.ok()) {
      CountFailure(query->outcome, query->hung_up);
    }
    // Ids are never reused: a missing one hung up, and the reply goes
    // nowhere.
    auto conn = conns_.find(query->conn_id);
    if (conn == conns_.end()) continue;
    conn->second.query = nullptr;
    conn->second.watch_readable = true;
    conn->second.out = std::move(query->frame);
    conn->second.written = 0;
    conn->second.last_progress = Clock::now();
    Pump(conn->second);
  }
}

void Server::FailQuery(Query& query, const Status& status) {
  if (!query.list) CountFailure(status, false);
  auto conn = conns_.find(query.conn_id);
  if (conn == conns_.end()) return;
  conn->second.query = nullptr;
  Reply(conn->second, ErrorResponse(status));
  Pump(conn->second);
}

void Server::RunQuery(Query* query) {
  Response response;
  try {
    response = query->list ? HandleList() : RunMine(*query);
  } catch (const std::exception& e) {
    query->outcome = Status::Internal(std::string("query failed: ") + e.what());
    response = ErrorResponse(query->outcome);
  }
  query->frame = FrameOf(response);
  {
    std::lock_guard<std::mutex> lock(finished_mu_);
    finished_.push_back(query);
  }
  Wake();
}

void Server::HandleMine(Connection& conn, const Request& request) {
  metrics_.AddCounter("queries.total", 1);
  const auto fail = [&](const Status& status) {
    metrics_.AddCounter("queries.failed", 1);
    Reply(conn, ErrorResponse(status));
  };
  auto query = std::make_unique<Query>();
  query->conn_id = conn.id;
  query->store = request.Param("store");
  if (query->store.empty()) {
    return fail(Status::InvalidArgument(
        "mine needs a `store <name>` parameter"));
  }
  for (const auto& [key, value] : request.params) {
    // Request-level params that are not mine option keys.
    if (key == "store" || key == "cache" || key == "deadline_ms") {
      continue;
    }
    const Status applied = ApplyMineOption(&query->mine, key, value);
    if (!applied.ok()) return fail(applied);
  }
  query->use_cache = request.Param("cache", "on") != "off";

  // Deadline: the client's `deadline_ms` (0 = none) over the server
  // default, clamped from above by the server maximum.
  int64_t deadline_ms = options_.default_deadline_ms;
  const std::string deadline_text = request.Param("deadline_ms");
  if (!deadline_text.empty()) {
    auto parsed = ParseInt(deadline_text);
    if (!parsed.ok() || *parsed < 0) {
      return fail(Status::InvalidArgument(
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
  // hang-up (the loop) or daemon drain.
  query->token.ChainTo(&drain_token_);
  if (deadline_ms > 0) query->token.SetDeadlineAfterMs(deadline_ms);

  if (query->use_cache) {
    // A hit on an unchanged store is answered here, without a thread
    // hop; a stale store reloads on the query's own thread.
    auto entry = registry_.GetIfFresh(query->store);
    if (!entry.ok()) return fail(entry.status());
    if (*entry != nullptr) {
      std::optional<Response> hit =
          CachedMine(query->store, **entry, CacheKey(**entry, query->mine),
                     query->timer);
      if (hit) return Reply(conn, *hit);
    }
  }
  Enqueue(conn, std::move(query));
}

#endif  // !_WIN32

void Server::CountFailure(const Status& status, bool disconnected) {
  // Deadline / abandonment outcomes are expected operation, not daemon
  // faults: they get their own counters and never count as
  // `queries.failed` (the smoke script asserts failed == 0).
  if (disconnected) {
    metrics_.AddCounter("queries.disconnected", 1);
    metrics_.AddCounter("queries.cancelled", 1);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    metrics_.AddCounter("queries.deadline_exceeded", 1);
  } else if (status.code() == StatusCode::kCancelled) {
    metrics_.AddCounter("queries.cancelled", 1);
  } else {
    metrics_.AddCounter("queries.failed", 1);
  }
}

std::optional<Response> Server::CachedMine(const std::string& store,
                                           const StoreEntry& entry,
                                           const std::string& key,
                                           const WallTimer& timer) {
  std::optional<ResultCache::CachedResult> cached = cache_.Get(key);
  if (!cached) return std::nullopt;
  metrics_.AddCounter("cache.hits", 1);
  metrics_.AddCounter("queries.ok", 1);
  const double ms = timer.ElapsedSeconds() * 1e3;
  metrics_.ObserveMs("query.latency_ms", ms);
  Response response = MineResponse(store, entry);
  response.meta.emplace_back("cache", "hit");
  response.meta.emplace_back("patterns",
                             std::to_string(cached->num_patterns));
  response.meta.emplace_back("latency_ms", FormatDouble(ms, 3));
  response.body = std::move(cached->body);
  return response;
}

Response Server::RunMine(Query& query) {
  // Resolve the store on the query's thread: a changed file reloads
  // here, paced like any other query work.
  auto entry = registry_.Get(query.store);
  if (!entry.ok()) {
    query.outcome = entry.status();
    return ErrorResponse(query.outcome);
  }
  const StoreEntry& e = **entry;
  const std::string key = CacheKey(e, query.mine);
  if (query.use_cache) {
    // The store may have reloaded, or an identical query finished,
    // since the loop's lookup.
    std::optional<Response> hit = CachedMine(query.store, e, key, query.timer);
    if (hit) return std::move(*hit);
    metrics_.AddCounter("cache.misses", 1);
  }

  MineRequest& mine = query.mine;
  mine.cancel = &query.token;
  mine.pool = &pool_;
  Result<ResultCache::PatternList> patterns =
      query.use_cache ? SharedPatterns(query, e) : Mine(query, e);
  Result<MineOutcome> outcome =
      patterns.ok() ? RenderRequest(**patterns, &e.reader.dict(), mine)
                    : Result<MineOutcome>(patterns.status());
  if (!outcome.ok()) {
    query.outcome = outcome.status();
    return ErrorResponse(query.outcome);
  }
  if (query.use_cache) {
    ResultCache::CachedResult cached;
    cached.body = outcome->body;
    cached.num_patterns = outcome->num_patterns;
    cache_.Put(key, std::move(cached));
  }
  metrics_.AddCounter("queries.ok", 1);
  metrics_.AddCounter(
      "patterns.total",
      static_cast<int64_t>(outcome->num_patterns));
  const double ms = query.timer.ElapsedSeconds() * 1e3;
  metrics_.ObserveMs("query.latency_ms", ms);
  Response response = MineResponse(query.store, e);
  response.meta.emplace_back("cache", query.use_cache ? "miss" : "off");
  response.meta.emplace_back("patterns",
                             std::to_string(outcome->num_patterns));
  response.meta.emplace_back("latency_ms", FormatDouble(ms, 3));
  response.body = std::move(outcome->body);
  return response;
}

Result<ResultCache::PatternList> Server::SharedPatterns(
    Query& query, const StoreEntry& entry) {
  const std::string spec = entry.fingerprint + "|" + MiningSpecKey(query.mine);
  std::unique_lock<std::mutex> lock(flights_mu_);
  bool waited = false;
  for (;;) {
    // The cache is read under flights_mu_, so a leader's list is either
    // cached or still in flight here, never in between.
    const auto flying = flights_.find(spec);
    if (flying == flights_.end()) {
      if (ResultCache::PatternList cached = cache_.GetPatterns(spec)) {
        metrics_.AddCounter("cache.pattern_hits", 1);
        return cached;
      }
      break;  // nobody mines the spec: this query does
    }
    const std::shared_ptr<Flight> flight = flying->second;
    if (!waited) metrics_.AddCounter("cache.pattern_waits", 1);
    waited = true;
    const auto landed = [&] { return flight->done || query.token.Fired(); };
    if (query.token.has_deadline()) {
      flights_cv_.wait_until(lock, query.token.deadline(), landed);
    } else {
      flights_cv_.wait(lock, landed);
    }
    if (flight->patterns != nullptr) {
      metrics_.AddCounter("cache.pattern_hits", 1);
      return flight->patterns;
    }
    if (query.token.Fired()) return query.token.ToStatus();
    // The mine failed or was cancelled: look again, and lead if nobody
    // else has taken over.
  }
  const auto flight = std::make_shared<Flight>();
  flights_.emplace(spec, flight);
  lock.unlock();
  metrics_.AddCounter("cache.mines", 1);
  Result<ResultCache::PatternList> mined = Status::Internal("not mined");
  try {
    mined = Mine(query, entry);
  } catch (...) {
    Land(spec, *flight, nullptr);  // no waiter stays on a mine that is gone
    throw;
  }
  if (mined.ok()) cache_.PutPatterns(spec, *mined);
  Land(spec, *flight, mined.ok() ? *mined : nullptr);
  return mined;
}

void Server::Land(const std::string& spec, Flight& flight,
                  ResultCache::PatternList patterns) {
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    flight.done = true;
    flight.patterns = std::move(patterns);
    flights_.erase(spec);
  }
  flights_cv_.notify_all();
}

Result<ResultCache::PatternList> Server::Mine(Query& query,
                                              const StoreEntry& entry) {
  // The query's own observability context: a trace session attached
  // for the duration (so concurrent queries' span sites stay isolated)
  // and a per-query registry the miner fills. Neither is read: the
  // session is never enabled, and the registry is dropped when the
  // query returns, so only the daemon counters and `query.latency_ms`
  // reach `stats`.
  trace::Session session;
  MetricsRegistry query_metrics;
  trace::SessionScope scope(&session);
  FLIPPER_ASSIGN_OR_RETURN(
      MiningResult result,
      MinePatterns(entry.reader.db(), entry.reader.taxonomy(), &entry.views,
                   query.mine, &query_metrics));
  return ResultCache::PatternList(
      std::make_shared<const std::vector<FlippingPattern>>(
          std::move(result.patterns)));
}

void Server::WakeWaiters() {
  // Taking the lock orders this wake-up after a waiter's predicate
  // check, so a token fired just before it blocks is not missed.
  { std::lock_guard<std::mutex> lock(flights_mu_); }
  flights_cv_.notify_all();
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

Response Server::HandleStats() {
  const ResultCache::Stats cache_stats = cache_.stats();
  metrics_.SetGauge("cache.entries",
                    static_cast<double>(cache_stats.entries));
  metrics_.SetGauge("cache.bytes",
                    static_cast<double>(cache_stats.bytes));
  metrics_.SetGauge("cache.evictions",
                    static_cast<double>(cache_stats.evictions));
  metrics_.SetGauge("scheduler.running",
                    static_cast<double>(running_.size()));
  metrics_.SetGauge("scheduler.waiting",
                    static_cast<double>(queue_.size()));
  metrics_.SetGauge("scheduler.admitted", static_cast<double>(admitted_));
  metrics_.SetGauge("scheduler.rejected", static_cast<double>(rejected_));
  metrics_.SetGauge("scheduler.timed_out",
                    static_cast<double>(timed_out_));
  metrics_.SetGauge("connections.live", static_cast<double>(conns_.size()));
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
