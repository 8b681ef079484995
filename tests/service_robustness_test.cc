// Robustness of the serve daemon under deadlines, abandonment and
// socket faults: a deadline firing mid-count must come back as a
// prompt `deadline_exceeded` error while a concurrent healthy query
// stays byte-identical to its solo oracle; a client hanging up
// mid-mine must free its scheduler slot; a sweep of hundreds of
// random mid-frame kills and stalls must leave the daemon serving
// with zero leaked connections or slots; and an un-fired CancelToken
// must be provably invisible in the mined bytes. The event loop's
// FIFO must cap concurrency, answer a full waiting room `overloaded`,
// lapse queued deadlines on time and fail queued requests on drain; a
// hung-up query's late reply must never reach a connection that
// reuses its fd number; pipelined requests must never read as a
// hang-up; idle connections and queries must start no threads of
// their own; running out of fds must not stop the daemon accepting;
// and concurrent misses on one mining spec must share one mine, which
// outlives its leader's hang-up and never waits past a deadline.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "common/backoff.h"
#include "common/cancellation.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/groceries_sim.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "service/client.h"
#include "service/mine_service.h"
#include "service/protocol.h"
#include "service/server.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"

namespace flipper {
namespace service {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- CancelToken ------------------------------------------------------

TEST(CancelTokenTest, UnfiredFiredAndDeadlineSemantics) {
  CancelToken token;
  EXPECT_FALSE(token.Fired());
  EXPECT_TRUE(token.ToStatus().ok());

  token.Cancel();
  EXPECT_TRUE(token.Fired());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);

  CancelToken lapsed;
  lapsed.SetDeadlineAfterMs(-1);  // already in the past
  EXPECT_TRUE(lapsed.Fired());
  EXPECT_EQ(lapsed.ToStatus().code(), StatusCode::kDeadlineExceeded);

  CancelToken future;
  future.SetDeadlineAfterMs(60 * 60 * 1000);
  EXPECT_FALSE(future.Fired());
  EXPECT_TRUE(future.ToStatus().ok());
}

TEST(CancelTokenTest, ChainedTokenFiresWithItsParent) {
  CancelToken parent;
  CancelToken child;
  child.ChainTo(&parent);
  EXPECT_FALSE(child.Fired());
  parent.Cancel();
  EXPECT_TRUE(child.Fired());
  // A parent fired by explicit cancel classifies as Cancelled even
  // when the child also carries a healthy deadline.
  CancelToken deadline_child;
  deadline_child.ChainTo(&parent);
  deadline_child.SetDeadlineAfterMs(60 * 60 * 1000);
  EXPECT_TRUE(deadline_child.Fired());
  EXPECT_EQ(deadline_child.ToStatus().code(), StatusCode::kCancelled);
}

// --- JitteredBackoff --------------------------------------------------

TEST(JitteredBackoffTest, DelaysStayInHalfOpenWindowAndCap) {
  JitteredBackoff::Options options;
  options.initial_ms = 10;
  options.max_ms = 100;
  JitteredBackoff backoff(42, options);
  int64_t base = 10;
  for (int i = 0; i < 12; ++i) {
    const int delay = backoff.NextDelayMs();
    EXPECT_GE(delay, base / 2) << "step " << i;
    EXPECT_LE(delay, base) << "step " << i;
    base = std::min<int64_t>(base * 2, 100);
  }
  backoff.Reset();
  const int after_reset = backoff.NextDelayMs();
  EXPECT_GE(after_reset, 5);
  EXPECT_LE(after_reset, 10);
  // Same seed, same options: the sequence is deterministic.
  JitteredBackoff twin(42, options);
  JitteredBackoff twin2(42, options);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(twin.NextDelayMs(), twin2.NextDelayMs());
  }
}

#ifndef _WIN32

// --- frame I/O deadlines ----------------------------------------------

TEST(FrameIoTest, SilentPeerTripsIdleAndMidFrameDeadlines) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream reader(fds[1]);

  // Idle deadline: no bytes at all.
  FrameIo io;
  io.idle_timeout_ms = 60;
  io.io_timeout_ms = 60;
  WallTimer timer;
  auto idle = ReadFrame(&reader, io);
  ASSERT_FALSE(idle.ok());
  EXPECT_EQ(idle.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedMillis(), 5000);

  // Mid-frame deadline: a torn length prefix then silence.
  const char partial[2] = {4, 0};
  ASSERT_EQ(::send(fds[0], partial, 2, 0), 2);
  auto torn = ReadFrame(&reader, io);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDeadlineExceeded);

  ::close(fds[0]);
  ::close(fds[1]);
}

// --- datasets and oracles ---------------------------------------------

void WriteGroceries(const std::string& path, uint32_t txns,
                    uint64_t seed) {
  GroceriesParams params;
  params.num_transactions = txns;
  params.seed = seed;
  auto data = GenerateGroceries(params);
  ASSERT_TRUE(data.ok()) << data.status();
  Status written = storage::WriteStoreFile(
      path, data->db, data->dict, data->taxonomy,
      storage::StoreWriter::Options{});
  ASSERT_TRUE(written.ok()) << written;
}

/// A store whose low-minsup mine takes seconds — long enough that a
/// sub-second deadline reliably fires mid-count.
void WriteSlowQuest(const std::string& path) {
  ItemDictionary dict;
  TaxonomyGenParams tax_params;
  auto taxonomy = GenerateBalancedTaxonomy(tax_params, &dict);
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
  QuestParams params;
  params.num_transactions = 30000;
  auto db = GenerateQuest(params, *taxonomy);
  ASSERT_TRUE(db.ok()) << db.status();
  Status written = storage::WriteStoreFile(
      path, *db, dict, *taxonomy, storage::StoreWriter::Options{});
  ASSERT_TRUE(written.ok()) << written;
}

/// Mine options that make the quest store's run slow (most of a second
/// in a Release build at 4 threads): near-floor supports make almost
/// every pair a candidate.
std::vector<std::pair<std::string, std::string>> SlowQuestParams() {
  return {{"minsup", "0.00005,0.00003,0.00003"},
          {"gamma", "0.02"},
          {"epsilon", "0.005"},
          {"format", "csv"}};
}

std::string SoloBody(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& params) {
  auto reader = storage::StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status();
  auto request = MineRequestFromParams(params);
  EXPECT_TRUE(request.ok()) << request.status();
  auto outcome =
      ExecuteMineRequest(reader->db(), reader->taxonomy(),
                         &reader->dict(), nullptr, *request, nullptr);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  return outcome->body;
}

Result<Response> MineOnce(
    const std::string& socket_path, const std::string& store,
    const std::vector<std::pair<std::string, std::string>>& params) {
  FLIPPER_ASSIGN_OR_RETURN(Client client,
                           Client::ConnectWithRetry(socket_path, 10000));
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", store);
  for (const auto& [key, value] : params) {
    request.params.emplace_back(key, value);
  }
  return client.Call(request);
}

/// A slow-quest mine (store `slow`, cache off) bounded by `deadline_ms`,
/// so a test never waits out the full multi-second run.
Request SlowMine(int deadline_ms) {
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "slow");
  request.params.emplace_back("cache", "off");
  request.params.emplace_back("deadline_ms", std::to_string(deadline_ms));
  for (const auto& [key, value] : SlowQuestParams()) {
    request.params.emplace_back(key, value);
  }
  return request;
}

/// Connects and sends `request` without reading the reply; -1 on failure.
int SendRaw(const std::string& socket_path, const Request& request) {
  auto fd = Client::ConnectRawFd(socket_path);
  if (!fd.ok()) {
    ADD_FAILURE() << fd.status();
    return -1;
  }
  EXPECT_TRUE(WriteFrame(*fd, EncodeRequest(request)).ok());
  return *fd;
}

/// Reads one reply from a raw connection, waiting at most `timeout_ms`.
Result<Response> ReadReply(int fd, int timeout_ms = 10000) {
  FdStream stream(fd);
  FrameIo io;
  io.idle_timeout_ms = timeout_ms;
  io.io_timeout_ms = timeout_ms;
  FLIPPER_ASSIGN_OR_RETURN(std::string frame, ReadFrame(&stream, io));
  return DecodeResponse(frame);
}

/// Sends `stats` (which refreshes the scheduler and connection gauges)
/// until the daemon's `name` gauge reads `value`; false on timeout.
bool AwaitGauge(const Server& server, Client* client,
                const std::string& name, double value) {
  Request stats;
  stats.verb = "stats";
  for (WallTimer timer; timer.ElapsedMillis() < 10000;) {
    auto response = client->Call(stats);
    if (response.ok() && response->ok &&
        server.metrics().gauge(name) == value) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << name << " never read " << value << " (last "
                << server.metrics().gauge(name) << ")";
  return false;
}

/// Polls the daemon's `name` counter until it reads `value`; false on
/// timeout.
bool AwaitCounter(const Server& server, const std::string& name,
                  int64_t value) {
  for (WallTimer timer; timer.ElapsedMillis() < 10000;) {
    if (server.metrics().counter(name) == value) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << name << " never read " << value << " (last "
                << server.metrics().counter(name) << ")";
  return false;
}

using Params = std::vector<std::pair<std::string, std::string>>;

/// A mining spec of the slow-quest store that takes most of a second
/// and still finds over a hundred flipping patterns: long enough for
/// later misses to join it in flight, and rich enough that every top-k
/// cut and format prints different bytes.
Params SharedSpec() {
  return {{"minsup", "0.001,0.0002,0.0001"},
          {"gamma", "0.15"},
          {"epsilon", "0.1"}};
}

/// Presentations of one spec: every query of a single-flight test
/// differs from the others in topk or format only.
std::vector<Params> Presentations() {
  return {{{"topk", "0"}, {"format", "csv"}},
          {{"topk", "1"}, {"format", "json"}},
          {{"topk", "2"}, {"format", "text"}},
          {{"topk", "3"}, {"format", "csv"}},
          {{"topk", "1000"}, {"format", "json"}},
          {{"topk", "5"}, {"format", "text"}},
          {{"topk", "0"}, {"format", "json"}},
          {{"topk", "7"}, {"format", "csv"}}};
}

/// The solo bodies of SharedSpec() in each presentation:
/// ExecuteMineRequest's two steps, with the one mine shared.
std::vector<std::string> SoloSpecBodies(
    const std::string& path, const std::vector<Params>& presentations) {
  auto reader = storage::StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status();
  auto spec = MineRequestFromParams(SharedSpec());
  EXPECT_TRUE(spec.ok()) << spec.status();
  auto mined = MinePatterns(reader->db(), reader->taxonomy(), nullptr,
                            *spec, nullptr);
  EXPECT_TRUE(mined.ok()) << mined.status();
  EXPECT_GT(mined->patterns.size(), 8u);
  std::vector<std::string> bodies;
  for (const Params& presentation : presentations) {
    Params params = SharedSpec();
    params.insert(params.end(), presentation.begin(), presentation.end());
    auto request = MineRequestFromParams(params);
    EXPECT_TRUE(request.ok()) << request.status();
    auto rendered = RenderRequest(mined->patterns, &reader->dict(), *request);
    EXPECT_TRUE(rendered.ok()) << rendered.status();
    bodies.push_back(rendered->body);
  }
  return bodies;
}

/// A cached mine of SharedSpec() on store `slow` in `presentation`.
Request SpecMine(const Params& presentation, int deadline_ms = 0) {
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "slow");
  if (deadline_ms > 0) {
    request.params.emplace_back("deadline_ms", std::to_string(deadline_ms));
  }
  for (const auto& param : SharedSpec()) request.params.push_back(param);
  for (const auto& param : presentation) request.params.push_back(param);
  return request;
}

// --- un-fired tokens are invisible ------------------------------------

TEST(CancellationTest, UnfiredTokenIsByteInvisible) {
  const std::string path = TempPath("cancel_identity.fdb");
  WriteGroceries(path, 800, 11);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto request = MineRequestFromParams({{"format", "csv"}});
  ASSERT_TRUE(request.ok()) << request.status();

  auto baseline =
      ExecuteMineRequest(reader->db(), reader->taxonomy(),
                         &reader->dict(), nullptr, *request, nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GT(std::count(baseline->body.begin(), baseline->body.end(),
                       '\n'),
            1);

  // Same request with a live-but-unfired token (far-future deadline):
  // the cancel plumbing may not perturb a single byte.
  CancelToken token;
  token.SetDeadlineAfterMs(60 * 60 * 1000);
  MineRequest with_token = *request;
  with_token.cancel = &token;
  auto tokened =
      ExecuteMineRequest(reader->db(), reader->taxonomy(),
                         &reader->dict(), nullptr, with_token, nullptr);
  ASSERT_TRUE(tokened.ok()) << tokened.status();
  EXPECT_EQ(tokened->body, baseline->body);
  EXPECT_FALSE(token.Fired());
  std::remove(path.c_str());
}

// --- deadline firing mid-count ----------------------------------------

TEST(ServerRobustnessTest, DeadlineFiresMidCountWhileHealthyQueryMatches) {
  const std::string quest_path = TempPath("deadline_quest.fdb");
  const std::string groceries_path = TempPath("deadline_groceries.fdb");
  WriteSlowQuest(quest_path);
  WriteGroceries(groceries_path, 1200, 3);
  const std::vector<std::pair<std::string, std::string>> healthy_params =
      {{"format", "csv"}};
  const std::string healthy_oracle =
      SoloBody(groceries_path, healthy_params);
  ASSERT_GT(std::count(healthy_oracle.begin(), healthy_oracle.end(),
                       '\n'),
            1);

  ServerOptions options;
  options.socket_path = TempPath("deadline.sock");
  options.max_concurrent = 2;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.AddStore("g", groceries_path).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kDeadlineMs = 1000;
  std::string deadline_error;
  int64_t deadline_elapsed_ms = 0;
  std::thread doomed([&]() {
    auto client = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(client.ok()) << client.status();
    Request request;
    request.verb = "mine";
    request.params.emplace_back("store", "slow");
    for (const auto& [key, value] : SlowQuestParams()) {
      request.params.emplace_back(key, value);
    }
    request.params.emplace_back("deadline_ms",
                                std::to_string(kDeadlineMs));
    // FLIPPING-only pruning keeps this mine multi-second (about 3 s in
    // a Release build at 4 threads), well past the deadline.
    request.params.emplace_back("pruning", "flipping");
    WallTimer timer;
    auto response = client->Call(request);
    deadline_elapsed_ms = timer.ElapsedMillis();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->ok);
    deadline_error = response->error;
  });

  // While the doomed query burns its deadline, an unrelated query on
  // the other store completes and stays byte-identical to its oracle.
  auto healthy = MineOnce(options.socket_path, "g", healthy_params);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_TRUE(healthy->ok) << healthy->error;
  EXPECT_EQ(healthy->body, healthy_oracle);

  doomed.join();
  EXPECT_NE(deadline_error.find("deadline_exceeded"), std::string::npos)
      << deadline_error;
  // Cooperative cancellation is polled at segment/batch granularity:
  // the error must come back promptly, not after the full multi-second
  // mine. Sanitizer instrumentation slows each poll interval by an
  // order of magnitude (and this box may be single-core), so those
  // builds get proportional slack; the uninstrumented bound is the
  // contract.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr int kUnwindSlack = 8;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  constexpr int kUnwindSlack = 8;
#else
  constexpr int kUnwindSlack = 2;
#endif
#else
  constexpr int kUnwindSlack = 2;
#endif
  EXPECT_LE(deadline_elapsed_ms, kUnwindSlack * kDeadlineMs)
      << "deadline took " << deadline_elapsed_ms << " ms to fire";

  EXPECT_GE(server.metrics().counter("queries.deadline_exceeded"), 1);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);

  server.Stop();
  std::remove(quest_path.c_str());
  std::remove(groceries_path.c_str());
}

// --- disconnect mid-mine ----------------------------------------------

TEST(ServerRobustnessTest, DisconnectMidMineFreesTheSchedulerSlot) {
  const std::string quest_path = TempPath("disconnect_quest.fdb");
  const std::string groceries_path = TempPath("disconnect_groceries.fdb");
  WriteSlowQuest(quest_path);
  WriteGroceries(groceries_path, 800, 5);
  const std::vector<std::pair<std::string, std::string>> healthy_params =
      {{"format", "csv"}};
  const std::string healthy_oracle =
      SoloBody(groceries_path, healthy_params);

  ServerOptions options;
  options.socket_path = TempPath("disconnect.sock");
  // One slot: the follow-up query can only run if the abandoned one
  // actually releases it.
  options.max_concurrent = 1;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.AddStore("g", groceries_path).ok());
  ASSERT_TRUE(server.Start().ok());

  // Fire the slow query and hang up mid-mine without reading a byte of
  // the response.
  {
    auto ready = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(ready.ok()) << ready.status();
  }
  auto fd = Client::ConnectRawFd(options.socket_path);
  ASSERT_TRUE(fd.ok()) << fd.status();
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "slow");
  for (const auto& [key, value] : SlowQuestParams()) {
    request.params.emplace_back(key, value);
  }
  ASSERT_TRUE(WriteFrame(*fd, EncodeRequest(request)).ok());
  // Give the daemon time to admit and start mining, then vanish.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::close(*fd);

  // The abandoned slot must free well before the slow mine would have
  // finished; the healthy query then runs and byte-matches its oracle.
  WallTimer timer;
  auto healthy = MineOnce(options.socket_path, "g", healthy_params);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_TRUE(healthy->ok) << healthy->error;
  EXPECT_EQ(healthy->body, healthy_oracle);

  // Slot accounting: nothing still running or queued, and the daemon
  // recorded the abandonment.
  for (int i = 0; i < 100; ++i) {
    if (server.metrics().counter("queries.disconnected") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.metrics().counter("queries.disconnected"), 1);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);

  auto stats_client =
      Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(stats_client.ok()) << stats_client.status();
  Request stats_request;
  stats_request.verb = "stats";
  auto stats = stats_client->Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->ok) << stats->error;
  EXPECT_EQ(server.metrics().gauge("scheduler.running"), 0.0);
  EXPECT_EQ(server.metrics().gauge("scheduler.waiting"), 0.0);

  server.Stop();
  std::remove(quest_path.c_str());
  std::remove(groceries_path.c_str());
}

// --- pipelined requests -------------------------------------------------

TEST(ServerRobustnessTest, PipelinedRequestsAreNotAHangup) {
  const std::string store_path = TempPath("pipelined.fdb");
  WriteGroceries(store_path, 1200, 13);
  const std::vector<std::vector<std::pair<std::string, std::string>>>
      params = {{{"format", "csv"}},
                {{"format", "json"}, {"measure", "cosine"}}};
  std::vector<std::string> oracles;
  for (const auto& p : params) oracles.push_back(SoloBody(store_path, p));

  ServerOptions options;
  options.socket_path = TempPath("pipelined.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());

  // Both frames go out before any response is read, so the second
  // sits unread on the connection while the first one mines.
  auto fd = Client::ConnectRawFd(options.socket_path);
  ASSERT_TRUE(fd.ok()) << fd.status();
  for (const auto& p : params) {
    Request request;
    request.verb = "mine";
    request.params.emplace_back("store", "d");
    request.params.emplace_back("cache", "off");
    for (const auto& [key, value] : p) request.params.emplace_back(key, value);
    ASSERT_TRUE(WriteFrame(*fd, EncodeRequest(request)).ok());
  }
  for (size_t i = 0; i < params.size(); ++i) {
    auto frame = ReadFrame(*fd);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": " << frame.status();
    auto response = DecodeResponse(*frame);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok) << "response " << i << ": " << response->error;
    EXPECT_EQ(response->body, oracles[i]) << "response " << i;
  }
  // A hang-up after the replies is a clean finish, not a disconnect.
  ::close(*fd);
  for (int i = 0; i < 500; ++i) {
    if (server.metrics().counter("connections.closed") ==
        server.metrics().counter("connections.opened")) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.metrics().counter("connections.closed"),
            server.metrics().counter("connections.opened"));
  EXPECT_EQ(server.metrics().counter("queries.disconnected"), 0);
  EXPECT_EQ(server.metrics().counter("queries.cancelled"), 0);
  EXPECT_EQ(server.metrics().counter("queries.ok"), 2);

  server.Stop();
  std::remove(store_path.c_str());
}

// --- bounded threads --------------------------------------------------

size_t LiveThreads() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ServerRobustnessTest, ConcurrentQueriesStartNoThreadsOfTheirOwn) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  const std::string quest_path = TempPath("threads_quest.fdb");
  WriteSlowQuest(quest_path);
  ServerOptions options;
  options.socket_path = TempPath("threads.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  // The started, idle daemon: the event loop and the shared pool's
  // workers exist already. A running query holds one thread, started by
  // the loop and counted in the bound below; its counting shards run on
  // the shared pool, so it starts none of its own.
  const size_t idle = LiveThreads();

  // Four slow queries at once, each on its own connection; the
  // deadline bounds the test's runtime in any build.
  constexpr int kQueries = 4;
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "slow");
  request.params.emplace_back("cache", "off");
  request.params.emplace_back("deadline_ms", "1500");
  for (const auto& [key, value] : SlowQuestParams()) {
    request.params.emplace_back(key, value);
  }
  std::vector<pollfd> fds;
  for (int i = 0; i < kQueries; ++i) {
    auto fd = Client::ConnectRawFd(options.socket_path);
    ASSERT_TRUE(fd.ok()) << fd.status();
    ASSERT_TRUE(WriteFrame(*fd, EncodeRequest(request)).ok());
    fds.push_back(pollfd{*fd, POLLIN, 0});
  }
  // Sample the thread count until every response is ready.
  size_t peak = 0;
  int samples = 0;
  int ready = 0;
  while (ready < kQueries) {
    peak = std::max(peak, LiveThreads());
    ++samples;
    ready = ::poll(fds.data(), fds.size(), 2);
    ASSERT_GE(ready, 0);
    if (ready < kQueries) {
      // poll() reports only the ready subset; re-arm on all.
      ready = 0;
      for (const pollfd& p : fds) ready += (p.revents & POLLIN) != 0;
    }
  }
  EXPECT_GT(samples, 10);
  EXPECT_LE(peak, idle + kQueries)
      << "idle " << idle << ", peak " << peak << " threads";
  for (const pollfd& p : fds) {
    auto frame = ReadFrame(p.fd);
    ASSERT_TRUE(frame.ok()) << frame.status();
    auto response = DecodeResponse(*frame);
    ASSERT_TRUE(response.ok()) << response.status();
    if (!response->ok) {
      EXPECT_NE(response->error.find("deadline_exceeded"),
                std::string::npos)
          << response->error;
    }
    ::close(p.fd);
  }
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);
  EXPECT_EQ(server.metrics().counter("queries.disconnected"), 0);

  server.Stop();
  std::remove(quest_path.c_str());
}

TEST(ServerRobustnessTest, IdleConnectionsHoldNoThreads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  const std::string store_path = TempPath("idle_conns.fdb");
  WriteGroceries(store_path, 200, 3);
  ServerOptions options;
  options.socket_path = TempPath("idle_conns.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();
  const size_t idle = LiveThreads();

  // 64 connections that send nothing, and 4 that stop half-way through
  // a frame's length prefix (within the default io_timeout_ms).
  constexpr int kIdle = 64;
  constexpr int kTorn = 4;
  std::vector<int> fds;
  for (int i = 0; i < kIdle + kTorn; ++i) {
    auto fd = Client::ConnectRawFd(options.socket_path);
    ASSERT_TRUE(fd.ok()) << fd.status();
    if (i >= kIdle) {
      const char partial[2] = {8, 0};
      ASSERT_EQ(::send(*fd, partial, sizeof(partial), 0), 2);
    }
    fds.push_back(*fd);
  }
  ASSERT_TRUE(AwaitGauge(server, &*control, "connections.live",
                         kIdle + kTorn + 1));
  EXPECT_LE(LiveThreads(), idle);

  // Every idle connection still answers.
  Request ping;
  ping.verb = "ping";
  for (int i = 0; i < kIdle; ++i) {
    ASSERT_TRUE(WriteFrame(fds[i], EncodeRequest(ping)).ok());
    auto pong = ReadReply(fds[i]);
    ASSERT_TRUE(pong.ok()) << "connection " << i << ": " << pong.status();
    EXPECT_TRUE(pong->ok);
    EXPECT_EQ(pong->Meta("schema"), std::to_string(kProtocolSchemaVersion));
  }
  EXPECT_LE(LiveThreads(), idle);
  for (int fd : fds) ::close(fd);

  server.Stop();
  std::remove(store_path.c_str());
}

// --- admission: the loop's FIFO ---------------------------------------

TEST(ServerRobustnessTest, ConcurrencyCapHoldsAndEveryRequestIsAdmitted) {
  const std::string store_path = TempPath("cap.fdb");
  WriteGroceries(store_path, 1500, 4);
  const std::string oracle = SoloBody(store_path, {{"format", "csv"}});

  ServerOptions options;
  options.socket_path = TempPath("cap.sock");
  options.max_concurrent = 2;
  Server server(options);
  ASSERT_TRUE(server.AddStore("g", store_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();

  // Eight misses at once; the daemon's own gauges, sampled throughout,
  // must never show more than two running.
  constexpr int kQueries = 8;
  Request request;
  request.verb = "mine";
  request.params = {{"store", "g"}, {"format", "csv"}, {"cache", "off"}};
  std::vector<pollfd> fds;
  for (int i = 0; i < kQueries; ++i) {
    const int fd = SendRaw(options.socket_path, request);
    ASSERT_GE(fd, 0);
    fds.push_back(pollfd{fd, POLLIN, 0});
  }
  Request stats;
  stats.verb = "stats";
  double peak_running = 0;
  double peak_waiting = 0;
  for (int ready = 0; ready < kQueries;) {
    auto sample = control->Call(stats);
    ASSERT_TRUE(sample.ok() && sample->ok);
    peak_running =
        std::max(peak_running, server.metrics().gauge("scheduler.running"));
    peak_waiting =
        std::max(peak_waiting, server.metrics().gauge("scheduler.waiting"));
    ASSERT_GE(::poll(fds.data(), fds.size(), 1), 0);
    ready = 0;
    for (const pollfd& p : fds) ready += (p.revents & POLLIN) != 0;
  }
  // A request waits only while every slot is taken: the cap was hit.
  EXPECT_LE(peak_running, 2.0);
  EXPECT_GE(peak_waiting, 1.0);
  for (const pollfd& p : fds) {
    auto response = ReadReply(p.fd);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok) << response->error;
    EXPECT_EQ(response->body, oracle);
    ::close(p.fd);
  }
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 0));
  EXPECT_EQ(server.metrics().gauge("scheduler.admitted"), kQueries);
  EXPECT_EQ(server.metrics().gauge("scheduler.rejected"), 0.0);
  EXPECT_EQ(server.metrics().gauge("scheduler.waiting"), 0.0);
  EXPECT_EQ(server.metrics().counter("queries.ok"), kQueries);

  server.Stop();
  std::remove(store_path.c_str());
}

TEST(ServerRobustnessTest, FullWaitingRoomAnswersOverloaded) {
  const std::string quest_path = TempPath("overload_quest.fdb");
  WriteSlowQuest(quest_path);
  ServerOptions options;
  options.socket_path = TempPath("overload.sock");
  options.max_concurrent = 1;
  options.max_queued = 1;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();

  // One runs, one waits: the waiting room is full.
  const int running = SendRaw(options.socket_path, SlowMine(5000));
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 1));
  const int waiting = SendRaw(options.socket_path, SlowMine(5000));
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.waiting", 1));

  // The next arrival is refused at once, without queueing.
  WallTimer timer;
  auto refused = control->Call(SlowMine(5000));
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_FALSE(refused->ok);
  EXPECT_NE(refused->error.find("overloaded"), std::string::npos)
      << refused->error;
  EXPECT_LT(timer.ElapsedMillis(), 2000);

  // A waiter whose peer hangs up is dropped without ever running, and
  // the running query is cancelled by its own hang-up.
  ::close(waiting);
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.waiting", 0));
  ::close(running);
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 0));
  EXPECT_EQ(server.metrics().gauge("scheduler.rejected"), 1.0);
  EXPECT_EQ(server.metrics().gauge("scheduler.admitted"), 1.0);
  EXPECT_EQ(server.metrics().counter("queries.rejected"), 1);
  EXPECT_EQ(server.metrics().counter("queries.disconnected"), 2);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);

  server.Stop();
  std::remove(quest_path.c_str());
}

TEST(ServerRobustnessTest, QueuedDeadlineLapsesOnTimeWithoutBlockingSuccessors) {
  const std::string quest_path = TempPath("queued_deadline_quest.fdb");
  const std::string groceries_path =
      TempPath("queued_deadline_groceries.fdb");
  WriteSlowQuest(quest_path);
  WriteGroceries(groceries_path, 800, 6);
  const std::string oracle = SoloBody(groceries_path, {{"format", "csv"}});
  ServerOptions options;
  options.socket_path = TempPath("queued_deadline.sock");
  options.max_concurrent = 1;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.AddStore("g", groceries_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();

  const int running = SendRaw(options.socket_path, SlowMine(5000));
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 1));
  // Queued behind it: a request whose deadline lapses in the queue, and
  // one with no deadline behind that.
  constexpr int kDeadlineMs = 200;
  Request doomed = SlowMine(kDeadlineMs);
  WallTimer timer;
  const int doomed_fd = SendRaw(options.socket_path, doomed);
  Request successor;
  successor.verb = "mine";
  successor.params = {{"store", "g"}, {"format", "csv"}};
  const int successor_fd = SendRaw(options.socket_path, successor);

  // The lapsed request is answered at its deadline, while the slow one
  // still runs.
  auto lapsed = ReadReply(doomed_fd);
  const int64_t elapsed_ms = timer.ElapsedMillis();
  ASSERT_TRUE(lapsed.ok()) << lapsed.status();
  EXPECT_FALSE(lapsed->ok);
  EXPECT_NE(lapsed->error.find("lapsed while queued"), std::string::npos)
      << lapsed->error;
  EXPECT_GE(elapsed_ms, kDeadlineMs);
  EXPECT_LT(elapsed_ms, kDeadlineMs + 1500);
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.waiting", 1));
  EXPECT_EQ(server.metrics().gauge("scheduler.timed_out"), 1.0);
  EXPECT_EQ(server.metrics().counter("queries.deadline_exceeded"), 1);

  // Once the slot frees, the request behind the lapsed one runs.
  ::close(running);
  auto served = ReadReply(successor_fd);
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_TRUE(served->ok) << served->error;
  EXPECT_EQ(served->body, oracle);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);
  ::close(doomed_fd);
  ::close(successor_fd);

  server.Stop();
  std::remove(quest_path.c_str());
  std::remove(groceries_path.c_str());
}

TEST(ServerRobustnessTest, HungUpQueryLateReplyNeverReachesAReusedFd) {
  const std::string quest_path = TempPath("reuse_quest.fdb");
  WriteSlowQuest(quest_path);
  ServerOptions options;
  options.socket_path = TempPath("reuse.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();
  Request ping;
  ping.verb = "ping";
  const auto expect_pong = [&](int fd, int cycle) {
    ASSERT_TRUE(WriteFrame(fd, EncodeRequest(ping)).ok());
    auto pong = ReadReply(fd);
    ASSERT_TRUE(pong.ok()) << "cycle " << cycle << ": " << pong.status();
    EXPECT_TRUE(pong->ok) << "cycle " << cycle << ": " << pong->error;
    EXPECT_EQ(pong->Meta("schema"), std::to_string(kProtocolSchemaVersion))
        << "cycle " << cycle;
  };

  // Each cycle: a running query's client hangs up; the daemon closes
  // its end at once, while the query is still unwinding. The next
  // connection takes the freed fd numbers (the lowest free ones) and
  // must only ever read replies to its own requests, before and after
  // the late reply comes back.
  constexpr int kCycles = 20;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const int abandoned = SendRaw(options.socket_path, SlowMine(5000));
    ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 1));
    ::close(abandoned);
    ASSERT_TRUE(AwaitGauge(server, &*control, "connections.live", 1));
    auto fresh = Client::ConnectRawFd(options.socket_path);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    expect_pong(*fresh, cycle);
    // The slot frees only once the loop has taken the late reply.
    ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 0));
    expect_pong(*fresh, cycle);
    pollfd stray{*fresh, POLLIN, 0};
    EXPECT_EQ(::poll(&stray, 1, 20), 0) << "cycle " << cycle;
    ::close(*fresh);
  }
  EXPECT_EQ(server.metrics().counter("queries.disconnected"), kCycles);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);

  server.Stop();
  std::remove(quest_path.c_str());
}

// --- running out of fds -----------------------------------------------

TEST(ServerRobustnessTest, AcceptSurvivesRunningOutOfFds) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "needs /proc/self/fd";
  }
  const std::string store_path = TempPath("emfile.fdb");
  WriteGroceries(store_path, 200, 8);
  ServerOptions options;
  options.socket_path = TempPath("emfile.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());
  {
    auto ready = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(ready.ok()) << ready.status();
  }

  // Lower this process's fd limit (the daemon shares it) a little above
  // the highest fd in use, and restore it however the test ends.
  int highest = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{saved};
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(highest) + 1 + 32;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // Use the fds up with held connections, fill what is left, then free
  // exactly one for a last connection: its client end takes it, so the
  // daemon's accept() fails with EMFILE.
  constexpr int kHeld = 8;
  std::vector<int> held;
  for (int i = 0; i < kHeld; ++i) {
    auto fd = Client::ConnectRawFd(options.socket_path);
    ASSERT_TRUE(fd.ok()) << fd.status();
    held.push_back(*fd);
  }
  // The daemon accepts every held connection (and the ready check's)
  // before the fill: one still in the listen backlog could take the
  // slot freed below before this test's last connect does.
  ASSERT_TRUE(AwaitCounter(server, "connections.opened", 1 + kHeld));
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
    fillers.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE);
  ASSERT_FALSE(fillers.empty());
  ::close(fillers.back());
  fillers.pop_back();
  auto last = Client::ConnectRawFd(options.socket_path);
  ASSERT_TRUE(last.ok()) << last.status();
  held.push_back(*last);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Release everything; the daemon must accept again.
  for (int fd : fillers) ::close(fd);
  for (int fd : held) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  Request ping;
  ping.verb = "ping";
  auto pong = client->Call(ping, /*io_timeout_ms=*/5000);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->ok) << pong->error;

  server.Stop();
  std::remove(store_path.c_str());
}

// --- chaos sweep ------------------------------------------------------

TEST(ServerRobustnessTest, ChaosSweepLeavesTheDaemonServingAndLeakFree) {
  const std::string store_path = TempPath("chaos.fdb");
  WriteGroceries(store_path, 400, 9);
  const std::vector<std::pair<std::string, std::string>> params = {
      {"format", "csv"}};
  const std::string oracle = SoloBody(store_path, params);

  ServerOptions options;
  options.socket_path = TempPath("chaos.sock");
  options.max_concurrent = 2;
  // Chaos streams that stall must trip the daemon's I/O deadline, not
  // pin a connection thread for the default 30 s.
  options.io_timeout_ms = 500;
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());
  {
    auto ready = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(ready.ok()) << ready.status();
  }

  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "d");
  for (const auto& [key, value] : params) {
    request.params.emplace_back(key, value);
  }
  const std::string payload = EncodeRequest(request);
  const uint64_t frame_bytes = payload.size() + 4;

  // >= 200 fault plans over both directions: kills and stalls at every
  // byte region — mid-prefix, mid-payload, mid-response.
  constexpr int kRounds = 220;
  Rng rng(0xc4a05);
  int killed = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto fd = Client::ConnectRawFd(options.socket_path);
    ASSERT_TRUE(fd.ok()) << "round " << round << ": " << fd.status();
    StreamFaultPlan plan;
    switch (rng.Below(4)) {
      case 0:
        plan.kill_after_write_bytes = rng.Below(frame_bytes + 1);
        break;
      case 1:
        plan.kill_after_read_bytes = rng.Below(64);
        break;
      case 2:
        plan.stall_before_write_byte = rng.Below(frame_bytes + 1);
        plan.stall_ms = 5 + static_cast<int>(rng.Below(20));
        break;
      default:
        plan.stall_before_read_byte = rng.Below(64);
        plan.stall_ms = 5 + static_cast<int>(rng.Below(20));
        break;
    }
    FaultInjectingStream stream(*fd, plan);
    FrameIo io;
    io.idle_timeout_ms = 5000;
    io.io_timeout_ms = 5000;
    if (WriteFrame(&stream, payload, io).ok()) {
      (void)ReadFrame(&stream, io);
    }
    if (stream.killed()) ++killed;
    ::close(*fd);
  }
  // The deterministic plan mix must actually exercise the kill paths.
  EXPECT_GT(killed, 50);

  // The daemon still serves, byte-identically.
  auto after = MineOnce(options.socket_path, "d", params);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(after->ok) << after->error;
  EXPECT_EQ(after->body, oracle);

  // Zero leaks: every accepted connection was closed (poll until the
  // last torn connections finish their teardown), and no scheduler
  // slot or waiter is stuck.
  int64_t opened = 0;
  int64_t closed = 0;
  for (int i = 0; i < 500; ++i) {
    opened = server.metrics().counter("connections.opened");
    closed = server.metrics().counter("connections.closed");
    if (opened > 0 && opened == closed + 1) break;  // +1: MineOnce's
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(opened, kRounds);
  // The `after` client's connection may still be live; all torn chaos
  // connections must be fully closed.
  EXPECT_LE(opened - closed, 1) << opened << " opened, " << closed
                                << " closed";
  Request stats_request;
  stats_request.verb = "stats";
  auto stats_client =
      Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(stats_client.ok()) << stats_client.status();
  auto stats = stats_client->Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->ok) << stats->error;
  EXPECT_EQ(server.metrics().gauge("scheduler.running"), 0.0);
  EXPECT_EQ(server.metrics().gauge("scheduler.waiting"), 0.0);

  server.Stop();
  std::remove(store_path.c_str());
}

// --- ping schema / uptime ---------------------------------------------

TEST(ServerRobustnessTest, PingCarriesSchemaVersionAndUptime) {
  const std::string store_path = TempPath("ping.fdb");
  WriteGroceries(store_path, 200, 7);
  ServerOptions options;
  options.socket_path = TempPath("ping.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());

  // ConnectWithRetry itself asserts the schema; also check the raw
  // meta values.
  auto client = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(client.ok()) << client.status();
  Request ping;
  ping.verb = "ping";
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  ASSERT_TRUE(pong->ok);
  EXPECT_EQ(pong->Meta("schema"),
            std::to_string(kProtocolSchemaVersion));
  EXPECT_FALSE(pong->Meta("uptime_s").empty());

  server.Stop();
  std::remove(store_path.c_str());
}

// --- graceful drain ---------------------------------------------------

TEST(ServerRobustnessTest, StopCancelsInFlightQueriesWithinTheGrace) {
  const std::string quest_path = TempPath("drain_quest.fdb");
  WriteSlowQuest(quest_path);
  ServerOptions options;
  options.socket_path = TempPath("drain.sock");
  options.drain_grace_ms = 150;
  options.max_concurrent = 1;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();

  // A slow query in flight when Stop() lands must be cancelled by the
  // drain token once the grace lapses — Stop may not hang for the
  // mine's full runtime — and one queued behind it fails Cancelled.
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "slow");
  for (const auto& [key, value] : SlowQuestParams()) {
    request.params.emplace_back(key, value);
  }
  const int victim = SendRaw(options.socket_path, request);
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 1));
  const int queued = SendRaw(options.socket_path, request);
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.waiting", 1));
  WallTimer timer;
  server.Stop();
  EXPECT_LT(timer.ElapsedMillis(), 3000);
  auto cancelled = ReadReply(queued);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status();
  EXPECT_FALSE(cancelled->ok);
  EXPECT_EQ(cancelled->error.rfind("Cancelled", 0), 0u) << cancelled->error;
  // The victim's error frame goes out before the daemon closes too.
  auto victim_reply = ReadReply(victim);
  ASSERT_TRUE(victim_reply.ok()) << victim_reply.status();
  EXPECT_FALSE(victim_reply->ok);
  EXPECT_EQ(server.metrics().counter("queries.cancelled"), 2);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);
  ::close(victim);
  ::close(queued);
  std::remove(quest_path.c_str());
}

// --- single-flight: one mine per spec in flight -------------------------

TEST(SingleFlightTest, ConcurrentFirstSightsOfOneSpecMineOnce) {
  const std::string quest_path = TempPath("flight_once.fdb");
  WriteSlowQuest(quest_path);
  const std::vector<Params> presentations = Presentations();
  const std::vector<std::string> oracles =
      SoloSpecBodies(quest_path, presentations);

  ServerOptions options;
  options.socket_path = TempPath("flight_once.sock");
  options.max_concurrent = 8;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  {
    auto ready = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(ready.ok()) << ready.status();
  }

  // Eight first sights at once, in eight presentations of one spec.
  std::vector<int> fds;
  for (const Params& presentation : presentations) {
    const int fd = SendRaw(options.socket_path, SpecMine(presentation));
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  for (size_t i = 0; i < fds.size(); ++i) {
    auto response = ReadReply(fds[i], 60000);
    ASSERT_TRUE(response.ok()) << "query " << i << ": " << response.status();
    ASSERT_TRUE(response->ok) << "query " << i << ": " << response->error;
    EXPECT_EQ(response->body, oracles[i]) << "query " << i;
    EXPECT_EQ(response->Meta("cache"), "miss") << "query " << i;
    ::close(fds[i]);
  }
  EXPECT_EQ(server.metrics().counter("cache.mines"), 1);
  EXPECT_EQ(server.metrics().counter("cache.pattern_hits"), 7);
  // The mine takes most of a second; the others arrived within it.
  EXPECT_GE(server.metrics().counter("cache.pattern_waits"), 1);
  EXPECT_EQ(server.metrics().counter("queries.ok"), 8);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);

  server.Stop();
  std::remove(quest_path.c_str());
}

TEST(SingleFlightTest, LeaderHangupHandsTheMineToAWaiter) {
  const std::string quest_path = TempPath("flight_hangup.fdb");
  WriteSlowQuest(quest_path);
  const std::vector<Params> presentations = Presentations();
  const std::vector<std::string> oracles =
      SoloSpecBodies(quest_path, presentations);

  ServerOptions options;
  options.socket_path = TempPath("flight_hangup.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();

  // The leader mines; three misses on its spec join it.
  const int leader = SendRaw(options.socket_path, SpecMine(presentations[0]));
  ASSERT_TRUE(AwaitCounter(server, "cache.mines", 1));
  constexpr int kWaiters = 3;
  std::vector<int> waiters;
  for (int i = 1; i <= kWaiters; ++i) {
    waiters.push_back(SendRaw(options.socket_path, SpecMine(presentations[i])));
  }
  ASSERT_TRUE(AwaitCounter(server, "cache.pattern_waits", kWaiters));

  // The leader's client hangs up mid-mine: its mine is cancelled, one
  // waiter mines under its own token and the others wait on that.
  ::close(leader);
  for (int i = 0; i < kWaiters; ++i) {
    auto response = ReadReply(waiters[i], 60000);
    ASSERT_TRUE(response.ok()) << "waiter " << i << ": " << response.status();
    ASSERT_TRUE(response->ok) << "waiter " << i << ": " << response->error;
    EXPECT_EQ(response->body, oracles[i + 1]) << "waiter " << i;
    ::close(waiters[i]);
  }
  ASSERT_TRUE(AwaitCounter(server, "queries.disconnected", 1));
  EXPECT_EQ(server.metrics().counter("cache.mines"), 2);
  EXPECT_EQ(server.metrics().counter("cache.pattern_hits"), kWaiters - 1);
  EXPECT_EQ(server.metrics().counter("queries.ok"), kWaiters);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);
  ASSERT_TRUE(AwaitGauge(server, &*control, "scheduler.running", 0));

  server.Stop();
  std::remove(quest_path.c_str());
}

TEST(SingleFlightTest, WaiterDeadlineLapsesWithoutTouchingTheLeader) {
  const std::string quest_path = TempPath("flight_deadline.fdb");
  WriteSlowQuest(quest_path);
  const std::vector<Params> presentations = Presentations();
  const std::vector<std::string> oracles =
      SoloSpecBodies(quest_path, presentations);

  ServerOptions options;
  options.socket_path = TempPath("flight_deadline.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  auto control = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(control.ok()) << control.status();

  const int leader = SendRaw(options.socket_path, SpecMine(presentations[0]));
  ASSERT_TRUE(AwaitCounter(server, "cache.mines", 1));

  // A waiter with a short deadline gets deadline_exceeded when it
  // lapses, while the leader is still mining.
  constexpr int kDeadlineMs = 150;
  WallTimer timer;
  auto waited = control->Call(SpecMine(presentations[1], kDeadlineMs));
  const int64_t elapsed_ms = timer.ElapsedMillis();
  ASSERT_TRUE(waited.ok()) << waited.status();
  EXPECT_FALSE(waited->ok);
  EXPECT_NE(waited->error.find("deadline_exceeded"), std::string::npos)
      << waited->error;
  EXPECT_GE(elapsed_ms, kDeadlineMs - 1);
  pollfd leader_poll{leader, POLLIN, 0};
  EXPECT_EQ(::poll(&leader_poll, 1, 0), 0)
      << "the leader finished before the waiter's deadline";
  EXPECT_EQ(server.metrics().counter("cache.pattern_waits"), 1);

  auto response = ReadReply(leader, 60000);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok) << response->error;
  EXPECT_EQ(response->body, oracles[0]);
  EXPECT_EQ(server.metrics().counter("cache.mines"), 1);
  EXPECT_EQ(server.metrics().counter("queries.deadline_exceeded"), 1);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);
  ::close(leader);

  server.Stop();
  std::remove(quest_path.c_str());
}

#endif  // !_WIN32

}  // namespace
}  // namespace service
}  // namespace flipper
