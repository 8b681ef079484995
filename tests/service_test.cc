// Serve-daemon tests: protocol codec round trips, the two-tier LRU
// result cache, stat-based store invalidation, and a live end-to-end
// daemon over a real unix socket — N concurrent queries must each come
// back byte-identical to a solo in-process mine, repeats must hit the
// cache, every top-k and format of one spec must render from a single
// mine, a store rewrite must invalidate both tiers, and a second daemon
// may not take over a live daemon's socket. (The event loop's admission
// FIFO is exercised in service_robustness_test.)

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "service/client.h"
#include "service/mine_service.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "datagen/groceries_sim.h"
#include "service/server.h"
#include "service/store_registry.h"
#include "storage/store_writer.h"
#include "test_util.h"

namespace flipper {
namespace service {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- protocol ---------------------------------------------------------

TEST(Protocol, RequestRoundTripKeepsParamsAndLastWins) {
  Request request;
  request.verb = "mine";
  request.params = {{"store", "g"}, {"gamma", "0.5"}, {"gamma", "0.7"}};
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, "mine");
  EXPECT_EQ(decoded->params, request.params);
  EXPECT_EQ(decoded->Param("gamma"), "0.7");
  EXPECT_EQ(decoded->Param("missing", "fallback"), "fallback");
}

TEST(Protocol, ResponseRoundTripPreservesRawBody) {
  Response response;
  response.ok = true;
  response.meta = {{"cache", "hit"}, {"patterns", "3"}};
  // The body is raw bytes after the blank line: embedded newlines and
  // a blank line of its own must survive.
  response.body = "line one\n\nline three\n";
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->meta, response.meta);
  EXPECT_EQ(decoded->body, response.body);
  EXPECT_EQ(decoded->Meta("cache"), "hit");
}

TEST(Protocol, ErrorResponseFoldsNewlinesIntoOneLine) {
  Response response;
  response.ok = false;
  response.error = "first\nsecond";
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->error, "first second");
}

#ifndef _WIN32
TEST(Protocol, FrameRoundTripAndCleanEofOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "mine\nstore g\n";
  ASSERT_TRUE(WriteFrame(fds[0], payload).ok());
  auto read = ReadFrame(fds[1]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  // An orderly hangup at a frame boundary is NotFound, not IoError.
  ::close(fds[0]);
  auto eof = ReadFrame(fds[1]);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[1]);
}
#endif

// --- result cache -----------------------------------------------------

ResultCache::CachedResult Body(const std::string& body) {
  ResultCache::CachedResult result;
  result.body = body;
  result.num_patterns = 1;
  return result;
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedByBytes) {
  ResultCache cache(/*capacity_bytes=*/10);
  cache.Put("a", Body("aaaa"));
  cache.Put("b", Body("bbbb"));
  ASSERT_TRUE(cache.Get("a").has_value());  // bumps `a` to MRU
  cache.Put("c", Body("cccc"));             // 12 bytes: evicts `b`
  EXPECT_FALSE(cache.Get("b").has_value());
  ASSERT_TRUE(cache.Get("a").has_value());
  ASSERT_TRUE(cache.Get("c").has_value());
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 8u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.Put("a", Body("aaaa"));
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, OversizedBodyIsNotCached) {
  ResultCache cache(4);
  cache.Put("big", Body("way too large"));
  EXPECT_FALSE(cache.Get("big").has_value());
  EXPECT_EQ(cache.stats().bytes, 0u);
}

/// `n` patterns, each with a chain of exactly `levels` LevelStats.
std::vector<FlippingPattern> Patterns(size_t n, size_t levels) {
  std::vector<FlippingPattern> patterns(n);
  for (FlippingPattern& p : patterns) {
    p.chain.reserve(levels);
    p.chain.resize(levels);
  }
  return patterns;
}

TEST(ResultCacheTest, PatternListsAndBodiesShareOneByteCap) {
  const auto list = std::make_shared<const std::vector<FlippingPattern>>(
      Patterns(2, 3));
  const size_t list_bytes = ResultCache::PatternBytes(*list);
  EXPECT_EQ(list_bytes, sizeof(std::vector<FlippingPattern>) +
                            2 * (sizeof(FlippingPattern) +
                                 list->front().chain.capacity() *
                                     sizeof(LevelStat)));
  EXPECT_GE(list->front().chain.capacity(), 3u);

  ResultCache cache(list_bytes + 8);
  cache.PutPatterns("spec", list);
  cache.Put("body", Body("bbbb"));
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, list_bytes + 4);
  // The list is shared, not copied; each tier answers only its own kind.
  EXPECT_EQ(cache.GetPatterns("spec"), list);  // bumps `spec` to MRU
  EXPECT_FALSE(cache.Get("spec").has_value());
  EXPECT_EQ(cache.GetPatterns("body"), nullptr);

  // Five more body bytes pass the cap by one: the LRU body goes.
  cache.Put("body2", Body("ccccc"));
  EXPECT_FALSE(cache.Get("body").has_value());
  EXPECT_EQ(cache.GetPatterns("spec"), list);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, list_bytes + 5);

  // A body as large as the list evicts by bytes across both kinds:
  // `body2`, then the list.
  cache.Put("wide", Body(std::string(list_bytes, 'w')));
  EXPECT_FALSE(cache.Get("body2").has_value());
  EXPECT_EQ(cache.GetPatterns("spec"), nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, list_bytes);

  // A list over the whole cap is not cached; nor is any list, even an
  // empty one, at capacity 0.
  ResultCache small(list_bytes - 1);
  small.PutPatterns("spec", list);
  EXPECT_EQ(small.GetPatterns("spec"), nullptr);
  EXPECT_EQ(small.stats().bytes, 0u);
  ResultCache off(0);
  off.PutPatterns("empty",
                  std::make_shared<const std::vector<FlippingPattern>>());
  EXPECT_EQ(off.GetPatterns("empty"), nullptr);
  EXPECT_EQ(off.stats().entries, 0u);
}

// --- cache key --------------------------------------------------------

TEST(CanonicalCacheKeyTest, ExcludesExecutionKnobs) {
  MineRequest a;
  MineRequest b = a;
  // Execution knobs are proven output-invariant; the key must treat
  // them as equal so a cached body answers all combinations.
  b.num_threads = 3;
  EXPECT_EQ(CanonicalCacheKey(a), CanonicalCacheKey(b));
  b.gamma = 0.5;
  EXPECT_NE(CanonicalCacheKey(a), CanonicalCacheKey(b));
  MineRequest c = a;
  c.format = "csv";
  EXPECT_NE(CanonicalCacheKey(a), CanonicalCacheKey(c));
  // topk and format only present the list: one mining spec.
  c.topk = 3;
  EXPECT_EQ(MiningSpecKey(a), MiningSpecKey(c));
  EXPECT_NE(MiningSpecKey(a), MiningSpecKey(b));
  EXPECT_EQ(CanonicalCacheKey(c).rfind(MiningSpecKey(c), 0), 0u);
}

TEST(ApplyMineOptionTest, RemovedKeysAreUnknown) {
  for (const char* key : {"pipeline", "row-overlap"}) {
    MineRequest request;
    const Status status = ApplyMineOption(&request, key, "off");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(status.message().find("unknown mine option '" +
                                    std::string(key) + "'"),
              std::string::npos)
        << status;
  }
}

// --- store registry ---------------------------------------------------

void WriteDataset(const std::string& path,
                  const testutil::Dataset& data) {
  Status written = storage::WriteStoreFile(
      path, data.db, data.dict, data.taxonomy,
      storage::StoreWriter::Options{});
  ASSERT_TRUE(written.ok()) << written;
}

TEST(StoreRegistryTest, ReloadsWhenTheFileChangesOnDisk) {
  const std::string path = TempPath("registry_reload.fdb");
  WriteDataset(path, testutil::RandomDataset(11, 4, 2, 3, 150));
  StoreRegistry registry;
  ASSERT_TRUE(registry.Add("d", path).ok());
  auto first = registry.Get("d");
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string fp1 = (*first)->fingerprint;
  EXPECT_EQ(fp1.size(), 16u);

  // Unchanged file: same published entry, same fingerprint.
  auto again = registry.Get("d");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->fingerprint, fp1);
  EXPECT_EQ(again->get(), first->get());
  auto fresh = registry.GetIfFresh("d");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->get(), first->get());

  // Rewrite with different contents (different size): GetIfFresh
  // reports the entry stale without reloading; the next Get must
  // reload into a fresh entry with a new fingerprint while the old
  // shared_ptr stays alive for in-flight queries.
  WriteDataset(path, testutil::RandomDataset(12, 4, 2, 3, 220));
  auto stale = registry.GetIfFresh("d");
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_EQ(*stale, nullptr);
  auto reloaded = registry.Get("d");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_NE((*reloaded)->fingerprint, fp1);
  EXPECT_NE(reloaded->get(), first->get());
  EXPECT_GT((*first)->reader.db().size(), 0u);  // old entry still usable
  auto after = registry.GetIfFresh("d");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->get(), reloaded->get());
  std::remove(path.c_str());
}

TEST(StoreRegistryTest, RejectsDuplicateAndUnknownNames) {
  const std::string path = TempPath("registry_names.fdb");
  WriteDataset(path, testutil::RandomDataset(13, 3, 2, 2, 60));
  StoreRegistry registry;
  ASSERT_TRUE(registry.Add("d", path).ok());
  EXPECT_FALSE(registry.Add("d", path).ok());
  EXPECT_FALSE(registry.Add("bad name", path).ok());
  EXPECT_FALSE(registry.Get("missing").ok());
  std::remove(path.c_str());
}

#ifndef _WIN32

// --- end-to-end daemon ------------------------------------------------

/// The end-to-end datasets: the groceries simulator reliably emits
/// flipping patterns under the default thresholds (uniform random
/// leaves would mine an empty answer set, making byte comparisons
/// vacuous).
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

/// Distinct output-affecting configs: no config's body answers
/// another's, so each first run is a miss (configs 0 and 1 share a
/// mining spec, so one of them renders the other's list). Every
/// variant still mines a non-empty answer set on the groceries data.
std::vector<std::vector<std::pair<std::string, std::string>>>
DistinctConfigs() {
  return {
      {{"format", "csv"}},
      {{"format", "csv"}, {"topk", "1"}},
      {{"format", "csv"}, {"gamma", "0.35"}},
      {{"format", "csv"}, {"epsilon", "0.15"}},
      {{"format", "json"}},
      {{"format", "json"}, {"measure", "cosine"}},
      {{"format", "text"}, {"minsup", "0.02,0.002,0.001"}},
      {{"format", "csv"}, {"pruning", "support"}, {"topk", "7"}},
  };
}

/// What a solo one-shot mine of `path` with `params` prints — the byte
/// oracle for the daemon's response body.
std::string SoloBody(const std::string& path,
                     const std::vector<std::pair<std::string, std::string>>&
                         params) {
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

TEST(ServerTest, ConcurrentQueriesAreByteIdenticalToSoloRuns) {
  const std::string store_path = TempPath("server_e2e.fdb");
  WriteGroceries(store_path, 1500, 1);
  const auto configs = DistinctConfigs();
  std::vector<std::string> expected;
  for (const auto& params : configs) {
    expected.push_back(SoloBody(store_path, params));
    // More than a bare CSV/JSON/text header: actual patterns.
    ASSERT_GT(std::count(expected.back().begin(), expected.back().end(),
                         '\n'),
              1)
        << "config " << expected.size() - 1 << " mined nothing";
  }

  ServerOptions options;
  options.socket_path = TempPath("server_e2e.sock");
  options.max_concurrent = 8;
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());

  // One client per config, all in flight at once: every response must
  // be a byte-for-byte match of the solo run, proving the re-entrant
  // miner over the shared views never cross-talks between queries.
  std::vector<std::thread> workers;
  std::vector<std::string> bodies(configs.size());
  std::vector<std::string> cache_meta(configs.size());
  std::atomic<int> failures{0};
  for (size_t i = 0; i < configs.size(); ++i) {
    workers.emplace_back([&, i]() {
      auto response = MineOnce(options.socket_path, "d", configs[i]);
      if (!response.ok() || !response->ok) {
        failures.fetch_add(1);
        return;
      }
      bodies[i] = response->body;
      cache_meta[i] = response->Meta("cache");
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_EQ(failures.load(), 0);
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(bodies[i], expected[i]) << "config " << i;
    EXPECT_EQ(cache_meta[i], "miss") << "config " << i;
  }

  // A repeat of config 0 is a verified cache hit with the same bytes.
  auto repeat = MineOnce(options.socket_path, "d", configs[0]);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  ASSERT_TRUE(repeat->ok) << repeat->error;
  EXPECT_EQ(repeat->Meta("cache"), "hit");
  EXPECT_EQ(repeat->body, expected[0]);

  // Execution knobs hit the same cache entry: same output-affecting
  // options through a different engine path must be served from cache.
  auto knobs = configs[0];
  knobs.emplace_back("threads", "2");
  auto knob_hit = MineOnce(options.socket_path, "d", knobs);
  ASSERT_TRUE(knob_hit.ok() && knob_hit->ok);
  EXPECT_EQ(knob_hit->Meta("cache"), "hit");
  EXPECT_EQ(knob_hit->body, expected[0]);

  // `cache off` bypasses but still returns identical bytes.
  auto bypass = configs[0];
  bypass.emplace_back("cache", "off");
  auto uncached = MineOnce(options.socket_path, "d", bypass);
  ASSERT_TRUE(uncached.ok() && uncached->ok);
  EXPECT_EQ(uncached->Meta("cache"), "off");
  EXPECT_EQ(uncached->body, expected[0]);

  server.Stop();
  std::remove(store_path.c_str());
}

TEST(ServerTest, StoreRewriteInvalidatesCacheAndReloads) {
  const std::string store_path = TempPath("server_reload.fdb");
  WriteGroceries(store_path, 1500, 1);
  const std::vector<std::pair<std::string, std::string>> params = {
      {"format", "csv"}};
  const std::string before = SoloBody(store_path, params);
  // The oracle body must carry patterns, not just the CSV header —
  // otherwise old-vs-new comparisons below would be vacuous.
  ASSERT_GT(std::count(before.begin(), before.end(), '\n'), 1);
  const std::vector<std::pair<std::string, std::string>> top2 = {
      {"format", "csv"}, {"topk", "2"}};
  const std::string before_top2 = SoloBody(store_path, top2);

  ServerOptions options;
  options.socket_path = TempPath("server_reload.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());

  auto first = MineOnce(options.socket_path, "d", params);
  ASSERT_TRUE(first.ok() && first->ok);
  EXPECT_EQ(first->body, before);
  const std::string fp1 = first->Meta("fingerprint");

  // Replace the store's contents on disk. The daemon must serve the
  // new dataset — a stale cache hit keyed on the old fingerprint would
  // return `before`.
  WriteGroceries(store_path, 2500, 7);
  const std::string after = SoloBody(store_path, params);
  ASSERT_NE(before, after);
  // A new top-k of the old spec first: its list must be mined from the
  // new contents, never rendered from the old fingerprint's list.
  const std::string after_top2 = SoloBody(store_path, top2);
  ASSERT_NE(before_top2, after_top2);
  auto top = MineOnce(options.socket_path, "d", top2);
  ASSERT_TRUE(top.ok() && top->ok);
  EXPECT_NE(top->Meta("fingerprint"), fp1);
  EXPECT_EQ(top->Meta("cache"), "miss");
  EXPECT_EQ(top->body, after_top2);
  auto second = MineOnce(options.socket_path, "d", params);
  ASSERT_TRUE(second.ok() && second->ok);
  EXPECT_NE(second->Meta("fingerprint"), fp1);
  EXPECT_EQ(second->Meta("cache"), "miss");
  EXPECT_EQ(second->body, after);
  EXPECT_EQ(server.metrics().counter("cache.mines"), 2);
  EXPECT_EQ(server.metrics().counter("cache.pattern_hits"), 1);

  server.Stop();
  std::remove(store_path.c_str());
}

TEST(ServerTest, EveryTopkAndFormatOfASpecRendersFromOneMine) {
  const std::string store_path = TempPath("server_spec.fdb");
  WriteGroceries(store_path, 1500, 1);
  std::vector<std::vector<std::pair<std::string, std::string>>> combos;
  std::vector<std::string> expected;
  for (const char* topk : {"0", "1", "2", "3", "1000"}) {
    for (const char* format : {"csv", "json", "text"}) {
      combos.push_back({{"topk", topk}, {"format", format}});
      expected.push_back(SoloBody(store_path, combos.back()));
    }
  }
  // Enough patterns that topk 1, 2 and 3 each cut the list.
  ASSERT_GT(std::count(expected[0].begin(), expected[0].end(), '\n'), 4);

  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "after a topk=0 csv warm-up" : "cold cache");
    ServerOptions options;
    options.socket_path = TempPath("server_spec.sock");
    Server server(options);
    ASSERT_TRUE(server.AddStore("d", store_path).ok());
    ASSERT_TRUE(server.Start().ok());
    if (warm) {
      auto warmup = MineOnce(options.socket_path, "d", combos[0]);
      ASSERT_TRUE(warmup.ok() && warmup->ok);
    }
    for (size_t i = 0; i < combos.size(); ++i) {
      auto response = MineOnce(options.socket_path, "d", combos[i]);
      ASSERT_TRUE(response.ok()) << response.status();
      ASSERT_TRUE(response->ok) << response->error;
      EXPECT_EQ(response->body, expected[i]) << "combo " << i;
      EXPECT_EQ(response->Meta("cache"), warm && i == 0 ? "hit" : "miss")
          << "combo " << i;
    }
    // One mine for the spec; every other first sight rendered its list.
    EXPECT_EQ(server.metrics().counter("cache.mines"), 1);
    EXPECT_EQ(server.metrics().counter("cache.pattern_hits"),
              static_cast<int64_t>(combos.size()) - 1);
    EXPECT_EQ(server.metrics().counter("cache.pattern_waits"), 0);
    server.Stop();
  }
  std::remove(store_path.c_str());
}

TEST(ServerTest, ShutdownVerbAcknowledgesThenStopsTheDaemon) {
  const std::string store_path = TempPath("server_shutdown.fdb");
  WriteGroceries(store_path, 200, 3);
  ServerOptions options;
  options.socket_path = TempPath("server_shutdown.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());

  std::thread waiter([&]() { server.Wait(); });
  auto client = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(client.ok()) << client.status();
  Request request;
  request.verb = "shutdown";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok);
  waiter.join();  // Wait() returns: the daemon is down
  EXPECT_FALSE(Client::Connect(options.socket_path).ok());
  std::remove(store_path.c_str());
}

TEST(ServerTest, StartRefusesALiveDaemonsSocketAndReplacesAStaleOne) {
  const std::string store_path = TempPath("server_twice.fdb");
  WriteGroceries(store_path, 200, 4);
  ServerOptions options;
  options.socket_path = TempPath("server_twice.sock");

  // A stale socket file: its listener closed without unlinking it.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(options.socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ::unlink(options.socket_path.c_str());
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(stale);
  ASSERT_TRUE(std::filesystem::exists(options.socket_path));

  Server first(options);
  ASSERT_TRUE(first.AddStore("d", store_path).ok());
  ASSERT_TRUE(first.Start().ok());
  {
    // A second daemon on the live path fails, and leaves it alone.
    Server second(options);
    const Status started = second.Start();
    EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition) << started;
    EXPECT_NE(started.message().find(options.socket_path),
              std::string::npos)
        << started;
  }
  auto client = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(client.ok()) << client.status();
  Request ping;
  ping.verb = "ping";
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->ok) << pong->error;

  first.Stop();
  std::remove(store_path.c_str());
}

TEST(ServerTest, UnknownStoreAndBadOptionAreCleanErrors) {
  const std::string store_path = TempPath("server_errors.fdb");
  WriteGroceries(store_path, 200, 5);
  ServerOptions options;
  options.socket_path = TempPath("server_errors.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());

  auto missing = MineOnce(options.socket_path, "nope", {});
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_FALSE(missing->ok);

  auto bad = MineOnce(options.socket_path, "d", {{"gamma", "2.5"}});
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_FALSE(bad->ok);
  EXPECT_NE(bad->error.find("'2.5'"), std::string::npos) << bad->error;

  // A removed option key is an unknown option: a clean error naming it,
  // and the same connection keeps serving.
  auto client = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::pair<std::string, std::string> kRemoved[] = {
      {"txn-prefilter", "off"},
      {"counter", "vertical"},
      {"pipeline", "off"},
      {"row-overlap", "off"}};
  for (const auto& [key, value] : kRemoved) {
    Request removed;
    removed.verb = "mine";
    removed.params = {{"store", "d"}, {key, value}};
    auto rejected = client->Call(removed);
    ASSERT_TRUE(rejected.ok()) << rejected.status();
    EXPECT_FALSE(rejected->ok);
    EXPECT_NE(
        rejected->error.find("unknown mine option '" + key + "'"),
        std::string::npos)
        << rejected->error;
    Request ping;
    ping.verb = "ping";
    auto pong = client->Call(ping);
    ASSERT_TRUE(pong.ok()) << pong.status();
    EXPECT_TRUE(pong->ok) << pong->error;
  }

  server.Stop();
  std::remove(store_path.c_str());
}

#endif  // !_WIN32

}  // namespace
}  // namespace service
}  // namespace flipper
