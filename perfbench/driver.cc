// perfbench_driver: the in-process half of the flipper benchmark.
// perfbench/run.py is the entry point; it launches the daemon and the
// one-shot `mine` processes, and calls this binary for the work that
// needs the library's public API or nanosecond timing:
//
//   load         open-loop served queries against a running daemon
//                (serve_read): the seeded query schedule, the NaiveMiner
//                oracle and body checks, and append sessions beside it
//   probe        a closed-loop service probe: repeated (hit) queries,
//                then append sessions each followed by one query
//   layers       driver-timed calls into each layer's public function
//   fingerprint  build facts for the host fingerprint
//
// Every subcommand writes one JSON object to --out. Times are
// steady-clock nanoseconds (or milliseconds derived from them).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/candidate_trie.h"
#include "core/flipper_miner.h"
#include "core/level_views.h"
#include "core/naive_miner.h"
#include "core/pipeline_metrics.h"
#include "core/topk.h"
#include "datagen/quest_gen.h"
#include "service/client.h"
#include "service/mine_service.h"
#include "service/protocol.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"

namespace perfbench {
namespace {

using flipper::FlippingPattern;
using flipper::Result;
using flipper::Status;
using flipper::TransactionDb;
using Params = std::vector<std::pair<std::string, std::string>>;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_driver: " << message << "\n";
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// --- arguments -------------------------------------------------------

/// `--key value` pairs; a key may repeat (`--store a=x --store b=y`).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("unexpected argument '" + key + "'");
      key = key.substr(2);
      std::string value = "1";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      values_[key].push_back(value);
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }
  std::string Required(const std::string& key) const {
    if (!Has(key)) Die("missing --" + key);
    return Get(key, "");
  }
  int64_t Int(const std::string& key) const {
    return std::stoll(Required(key));
  }
  int64_t Int(const std::string& key, int64_t fallback) const {
    return Has(key) ? std::stoll(Get(key, "")) : fallback;
  }
  double Double(const std::string& key) const {
    return std::stod(Required(key));
  }
  std::vector<std::string> All(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

// --- JSON output ------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Writes `{ "k": v, ... }` from pre-rendered JSON values.
void WriteJsonObject(const std::string& path,
                     const std::vector<std::pair<std::string, std::string>>&
                         fields) {
  std::ofstream out(path, std::ios::trunc);
  out << "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out << (i ? ",\n" : "\n") << Quote(fields[i].first) << ": "
        << fields[i].second;
  }
  out << "\n}\n";
  if (!out.flush()) Die("cannot write " + path);
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? "," : "") + Num(values[i]);
  }
  return out + "]";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- the query grid ----------------------------------------------------

/// A store the daemon serves, as `name=path` on the command line.
struct StoreArg {
  std::string name;
  std::string path;
};

std::vector<StoreArg> ParseStores(const Args& args) {
  std::vector<StoreArg> stores;
  for (const std::string& spec : args.All("store")) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos) Die("--store wants NAME=PATH");
    stores.push_back({spec.substr(0, eq), spec.substr(eq + 1)});
  }
  if (stores.empty()) Die("missing --store");
  return stores;
}

/// Support profiles served per store. Quest uses two Table 3 profiles
/// whose NaiveMiner oracle stays cheap enough to run in every
/// invocation; medline (three levels) uses two of its own.
std::vector<std::string> ProfilesFor(const std::string& store) {
  if (store == "quest") {
    return {"0.05,0.001,0.0005,0.0001",   // Table 3 thr2
            "0.01,0.001,0.0005,0.0001"};  // Table 3 thr3
  }
  return {"0.01,0.001,0.0005", "0.005,0.0005,0.0002"};
}

const std::vector<std::string> kMeasures = {"kulczynski", "cosine",
                                            "all_confidence"};
const std::vector<std::string> kFormats = {"csv", "json", "text"};
/// Top-k cut-offs 0 (all) .. 24. Top-k is applied after mining, so
/// the variants of one spec cost the daemon a full mine each on a miss
/// but cost the oracle only a render: the key space is large enough
/// that first sights (misses) keep arriving through the whole run.
constexpr int kMaxTopk = 24;

/// One mining computation: what the NaiveMiner oracle runs once.
struct MiningSpec {
  int store = 0;
  Params params;  // measure, gamma, minsup
};

/// One result-cache key: a mining spec plus output-only options.
struct QueryKey {
  int spec = 0;
  Params params;  // spec params + format [+ topk]
};

struct Grid {
  std::vector<MiningSpec> specs;
  std::vector<QueryKey> keys;  // by popularity rank
};

/// Ranks interleave the specs (rank r uses spec r mod C), so every
/// store, profile and measure appears among the popular keys and the
/// mix of miss costs does not depend on the seed.
Grid BuildGrid(const std::vector<StoreArg>& stores) {
  Grid grid;
  size_t max_profiles = 0;
  for (const StoreArg& s : stores) {
    max_profiles = std::max(max_profiles, ProfilesFor(s.name).size());
  }
  for (const std::string& measure : kMeasures) {
    for (size_t p = 0; p < max_profiles; ++p) {
      for (size_t s = 0; s < stores.size(); ++s) {
        const auto profiles = ProfilesFor(stores[s].name);
        if (p >= profiles.size()) continue;
        grid.specs.push_back({static_cast<int>(s),
                              {{"measure", measure},
                               {"gamma", "0.3"},
                               {"minsup", profiles[p]}}});
      }
    }
  }
  for (const std::string& format : kFormats) {
    for (int topk = 0; topk <= kMaxTopk; ++topk) {
      for (size_t c = 0; c < grid.specs.size(); ++c) {
        QueryKey key;
        key.spec = static_cast<int>(c);
        key.params = grid.specs[c].params;
        key.params.emplace_back("format", format);
        if (topk > 0) key.params.emplace_back("topk", std::to_string(topk));
        grid.keys.push_back(std::move(key));
      }
    }
  }
  return grid;
}

flipper::service::MineRequest RequestOf(const Params& params) {
  return Check(flipper::service::MineRequestFromParams(params),
               "grid params");
}

flipper::service::Request WireRequest(const std::string& store,
                                      const Params& params) {
  flipper::service::Request request;
  request.verb = "mine";
  request.params.emplace_back("store", store);
  for (const auto& p : params) request.params.push_back(p);
  return request;
}

struct Arrival {
  int64_t due_ns = 0;  // offset from the run start
  int key = 0;
};

/// Poisson arrivals at `rate` per second over `seconds`, conditioned on
/// their count (rate x seconds arrivals, uniform times, sorted) so the
/// offered load does not vary with the seed; keys drawn Zipf(`zipf`)
/// over the grid's popularity ranks.
std::vector<Arrival> Schedule(uint64_t seed, double rate, double seconds,
                              double zipf, size_t num_keys) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED270B);
  std::vector<double> cdf(num_keys);
  double total = 0;
  for (size_t r = 0; r < num_keys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> when(0.0, seconds);
  std::uniform_real_distribution<double> unit(0.0, total);
  const size_t count = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<Arrival> arrivals;
  for (size_t i = 0; i < count; ++i) {
    const double t = when(rng);
    const size_t r = std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), unit(rng)) - cdf.begin(),
        num_keys - 1);
    arrivals.push_back({static_cast<int64_t>(t * 1e9), static_cast<int>(r)});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due_ns < b.due_ns;
            });
  return arrivals;
}

// --- oracle and solo checks --------------------------------------------

std::string Render(std::vector<FlippingPattern> patterns,
                   const flipper::service::MineRequest& request,
                   const flipper::ItemDictionary* dict) {
  if (request.topk > 0) {
    patterns = flipper::TopKMostFlipping(std::move(patterns),
                                         static_cast<size_t>(request.topk));
  }
  std::ostringstream body;
  Check(flipper::service::RenderPatterns(patterns, dict, request.format,
                                         body),
        "render");
  return std::move(body).str();
}

/// The `mine --baseline` body for every key in `wanted`: one NaiveMiner
/// run per mining spec (specs run in parallel, one thread each), then
/// top-k and rendering per key, as the CLI's baseline path does.
std::map<int, std::string> OracleBodies(
    const Grid& grid, const std::vector<flipper::storage::StoreReader*>& readers,
    const std::set<int>& wanted, int workers) {
  std::map<int, std::vector<int>> keys_by_spec;
  for (int k : wanted) keys_by_spec[grid.keys[k].spec].push_back(k);
  std::vector<std::pair<int, std::vector<int>>> jobs(keys_by_spec.begin(),
                                                     keys_by_spec.end());
  std::map<int, std::string> bodies;
  std::mutex mu;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t j = next++; j < jobs.size(); j = next++) {
        const MiningSpec& spec = grid.specs[jobs[j].first];
        const flipper::storage::StoreReader& reader = *readers[spec.store];
        flipper::MiningConfig config =
            flipper::service::ToMiningConfig(RequestOf(spec.params));
        config.num_threads = 1;
        flipper::MiningResult result = Check(
            flipper::NaiveMiner::Run(reader.db(), reader.taxonomy(), config),
            "oracle");
        for (int k : jobs[j].second) {
          std::string body = Render(result.patterns,
                                    RequestOf(grid.keys[k].params),
                                    &reader.dict());
          std::lock_guard<std::mutex> lock(mu);
          bodies[k] = std::move(body);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return bodies;
}

/// A solo (daemon-free) Flipper mine of one key over a store file.
std::string SoloBody(const std::string& path, const Params& params) {
  auto reader = Check(flipper::storage::StoreReader::Open(path), "open");
  auto outcome = Check(flipper::service::ExecuteMineRequest(
                           reader.db(), reader.taxonomy(), &reader.dict(),
                           nullptr, RequestOf(params), nullptr),
                       "solo mine");
  return outcome.body;
}

// --- daemon observation ------------------------------------------------

/// utime + stime of `pid` in milliseconds (0 when unreadable).
double ProcCpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The `Threads:` line of /proc/<pid>/status (0 when unreadable).
int ProcThreads(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

/// Samples the daemon's thread count every 20 ms until stopped.
class ThreadSampler {
 public:
  explicit ThreadSampler(int pid) : pid_(pid) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ThreadSampler() { Stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  int Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  void Loop() {
    while (!stop_) {
      peak_ = std::max(peak_, ProcThreads(pid_));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const int pid_;
  std::atomic<bool> stop_{false};
  int peak_ = 0;
  std::thread thread_;
};

std::string StatsBody(const std::string& socket) {
  auto client = Check(flipper::service::Client::Connect(socket), "connect");
  flipper::service::Request request;
  request.verb = "stats";
  auto response = Check(client.Call(request, 30000), "stats");
  if (!response.ok) Die("stats: " + response.error);
  return response.body;
}

// --- appends -------------------------------------------------------------

/// Fresh quest transactions for append sessions, generated over the
/// store's own taxonomy so every item is already in its dictionary.
TransactionDb FreshQuestTxns(const flipper::Taxonomy& taxonomy,
                             uint32_t count, uint64_t seed) {
  flipper::QuestParams params;
  params.num_transactions = count;
  params.seed = seed;
  return Check(flipper::GenerateQuest(params, taxonomy), "generate batch");
}

struct AppendTiming {
  double session_ms = 0;  // OpenAppend .. durable Finish
  double commit_ms = 0;   // Finish alone
  uint64_t bytes = 0;     // file growth
};

/// One append session of `db` rows [begin, end) onto `path`.
AppendTiming AppendBatch(const std::string& path, const TransactionDb& db,
                         uint32_t begin, uint32_t end,
                         const flipper::ItemDictionary& dict,
                         const flipper::Taxonomy& taxonomy) {
  const uint64_t before = std::filesystem::file_size(path);
  AppendTiming timing;
  const int64_t start = NowNs();
  auto writer =
      Check(flipper::storage::StoreWriter::OpenAppend(path), "OpenAppend");
  for (uint32_t t = begin; t < end; ++t) {
    Check(writer.Append(db.Get(t)), "Append");
  }
  const int64_t commit = NowNs();
  Check(writer.Finish(dict, taxonomy), "Finish");
  timing.commit_ms = MsSince(commit);
  timing.session_ms = MsSince(start);
  timing.bytes = std::filesystem::file_size(path) - before;
  return timing;
}

// --- load ----------------------------------------------------------------

enum Outcome { kOk = 0, kError = 1, kTransport = 2, kMismatch = 3 };

struct Record {
  int64_t due = 0, send = 0, done = 0;
  int key = 0;
  int outcome = kOk;
  std::string cache = "-";
  double server_ms = -1;
  std::string body;
  std::string error;
};

/// The open loop: `--rate` queries per second for `--seconds` through
/// `--conns` connections, every body checked against the NaiveMiner
/// oracle afterwards. Beside it, `--appends` evenly spaced append
/// sessions of `--append-batch` fresh transactions go to
/// `--append-copy`, a copy of the quest store the daemon does not serve.
int Load(const Args& args) {
  const std::vector<StoreArg> stores = ParseStores(args);
  const std::string socket = args.Required("socket");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const double seconds = args.Double("seconds");
  const double rate = args.Double("rate");
  const double zipf = args.Double("zipf");
  const int conns = static_cast<int>(args.Int("conns"));
  const int pid = static_cast<int>(args.Int("pid"));
  const bool trace = args.Int("trace", 0) != 0;
  const int num_appends = static_cast<int>(args.Int("appends"));
  const uint32_t append_batch =
      static_cast<uint32_t>(args.Int("append-batch"));
  const std::string append_copy = args.Required("append-copy");
  const int inject = static_cast<int>(args.Int("inject-mismatch", 0));

  const Grid grid = BuildGrid(stores);
  const std::vector<Arrival> arrivals = Schedule(
      seed, rate, seconds, zipf, grid.keys.size());
  if (arrivals.empty()) Die("empty schedule");

  // The stores opened in-process: the oracle's input, and (quest) the
  // dictionary and taxonomy the append sessions commit with.
  std::vector<flipper::storage::StoreReader> readers;
  int quest = -1;
  for (size_t s = 0; s < stores.size(); ++s) {
    if (stores[s].name == "quest") quest = static_cast<int>(s);
    readers.push_back(Check(flipper::storage::StoreReader::Open(stores[s].path),
                            "open " + stores[s].path));
  }
  if (quest < 0) Die("appends need a store named quest");
  std::filesystem::copy_file(stores[quest].path, append_copy,
                             std::filesystem::copy_options::overwrite_existing);

  // The oracle body of every key the schedule will send and every append
  // batch, made before the clock starts (excluded from every metric).
  std::set<int> wanted;
  for (const Arrival& a : arrivals) wanted.insert(a.key);
  std::vector<flipper::storage::StoreReader*> ptrs;
  for (auto& r : readers) ptrs.push_back(&r);
  const int64_t oracle_start = NowNs();
  const std::map<int, std::string> oracle =
      OracleBodies(grid, ptrs, wanted, /*workers=*/4);
  const double oracle_s = MsSince(oracle_start) / 1e3;
  const TransactionDb batches =
      FreshQuestTxns(readers[quest].taxonomy(),
                     append_batch * static_cast<uint32_t>(num_appends),
                     seed * 7919 + 104729);

  std::vector<flipper::service::Client> clients;
  for (int c = 0; c < conns; ++c) {
    clients.push_back(
        Check(flipper::service::Client::Connect(socket), "connect"));
  }

  std::vector<Record> records(arrivals.size());
  std::vector<std::vector<double>> appends;  // due, session, commit, bytes
  const int64_t t0 = NowNs() + 20'000'000;
  std::optional<ThreadSampler> sampler;
  if (trace) sampler.emplace(pid);
  const double cpu_before = ProcCpuMs(pid);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = next++; i < arrivals.size(); i = next++) {
        const Arrival& a = arrivals[i];
        const QueryKey& key = grid.keys[a.key];
        const StoreArg& store = stores[grid.specs[key.spec].store];
        Record& r = records[i];
        r.key = a.key;
        r.due = t0 + a.due_ns;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(r.due)));
        r.send = NowNs();
        auto response = clients[c].Call(WireRequest(store.name, key.params),
                                        120000);
        r.done = NowNs();
        if (!response.ok()) {
          r.outcome = kTransport;
          r.error = response.status().ToString();
        } else if (!response->ok) {
          r.outcome = kError;
          r.error = response->error;
        } else {
          r.cache = response->Meta("cache", "-");
          r.server_ms = std::stod(response->Meta("latency_ms", "-1"));
          r.body = std::move(response->body);
        }
      }
    });
  }
  std::thread appender([&] {
    const double every_ns = seconds * 1e9 / (num_appends + 1);
    for (int k = 0; k < num_appends; ++k) {
      const int64_t due = t0 + static_cast<int64_t>((k + 1) * every_ns);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const uint32_t begin = static_cast<uint32_t>(k) * append_batch;
      const AppendTiming timing =
          AppendBatch(append_copy, batches, begin, begin + append_batch,
                      readers[quest].dict(), readers[quest].taxonomy());
      appends.push_back({static_cast<double>(due), timing.session_ms,
                         timing.commit_ms, static_cast<double>(timing.bytes)});
    }
  });
  for (std::thread& t : workers) t.join();
  appender.join();
  const double cpu_ms = ProcCpuMs(pid) - cpu_before;
  const int threads_peak = sampler ? sampler->Stop() : 0;

  // Every body against the oracle. `--inject-mismatch N` corrupts the
  // first N OK bodies first, to prove a mismatch is counted.
  int injected = 0;
  for (Record& r : records) {
    if (r.outcome != kOk) continue;
    if (injected < inject && !r.body.empty()) {
      r.body[0] ^= 0x20;
      ++injected;
    }
    if (r.body != oracle.at(r.key)) {
      r.outcome = kMismatch;
      r.error = "body differs from the NaiveMiner oracle";
    }
  }

  // Records as columns: [due, send, done, store, key, spec, outcome,
  // cache, server_ms].
  std::ostringstream rows;
  rows << "[";
  std::vector<std::string> errors;
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const int spec = grid.keys[r.key].spec;
    rows << (i ? ",\n" : "\n") << "[" << r.due << "," << r.send << ","
         << r.done << "," << Quote(stores[grid.specs[spec].store].name)
         << "," << r.key << "," << spec << "," << r.outcome << ","
         << Quote(r.cache) << "," << Num(r.server_ms) << "]";
    if (r.outcome != kOk && errors.size() < 10) errors.push_back(r.error);
  }
  rows << "]";
  std::string append_rows = "[";
  for (size_t i = 0; i < appends.size(); ++i) {
    append_rows += (i ? "," : "") + NumList(appends[i]);
  }
  append_rows += "]";
  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    error_list += (i ? "," : "") + Quote(errors[i]);
  }
  error_list += "]";
  WriteJsonObject(args.Required("out"),
                  {{"oracle_s", Num(oracle_s)},
                   {"num_keys", std::to_string(grid.keys.size())},
                   {"checked", std::to_string(records.size())},
                   {"cpu_ms", Num(cpu_ms)},
                   {"threads_peak", std::to_string(threads_peak)},
                   {"errors", error_list},
                   {"appends", append_rows},
                   {"stats", StatsBody(socket)},
                   {"records", rows.str()}});
  return 0;
}

// --- probe ---------------------------------------------------------------

/// A closed-loop service probe over one connection to a daemon serving
/// quest from `--path`, driven step by step from stdin so the caller can
/// spread its samples across a run. Each step answers `ok` on stdout:
///   hit     sends the probe query again (after the first, a cache hit)
///   append  one append session on `--append-path`, a copy of the store
///           that the daemon does not serve
///   reload  one append session on the served store, then the probe
///           query (the registry reload); a seeded third are checked
///           against a solo mine of the store as it then is. A reload
///           changes the hits' answer, so no hit may follow one.
///   end     writes the JSON and exits
int Probe(const Args& args) {
  const std::string socket = args.Required("socket");
  const std::string path = args.Required("path");
  const std::string append_path = args.Required("append-path");
  const int pid = static_cast<int>(args.Int("pid"));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  // Append sessions the probe may make (each takes one batch), over
  // both targets.
  const int max_appends = static_cast<int>(args.Int("appends"));
  const uint32_t batch = static_cast<uint32_t>(args.Int("batch"));
  const int inject = static_cast<int>(args.Int("inject-mismatch", 0));
  const Params params = {{"measure", "kulczynski"},
                         {"gamma", "0.3"},
                         {"minsup", ProfilesFor("quest")[1]},
                         {"format", "csv"}};
  const flipper::service::Request request = WireRequest("quest", params);

  std::filesystem::copy_file(
      path, append_path, std::filesystem::copy_options::overwrite_existing);
  auto base = Check(flipper::storage::StoreReader::Open(append_path), "open");
  const TransactionDb txns = FreshQuestTxns(
      base.taxonomy(), batch * static_cast<uint32_t>(max_appends),
      seed * 7919 + 15485863);
  auto client = Check(flipper::service::Client::Connect(socket), "connect");
  const double cpu_before = ProcCpuMs(pid);
  int threads_peak = ProcThreads(pid);

  int attempted = 0, failed = 0, injected = 0;
  std::vector<std::string> errors;
  std::vector<double> query_ms, hit_ms, hit_server_ms, wire_ms, append_ms,
      commit_ms, bytes_per_txn, post_append_ms;
  // One query; a null `expected` skips the body check.
  auto query = [&](const std::string* expected, std::vector<double>* latency,
                   std::vector<double>* server) {
    ++attempted;
    const int64_t start = NowNs();
    auto response = client.Call(request, 120000);
    const double ms = MsSince(start);
    query_ms.push_back(ms);
    if (!response.ok() || !response->ok) {
      ++failed;
      errors.push_back(response.ok() ? response->error
                                     : response.status().ToString());
      return;
    }
    std::string body = std::move(response->body);
    if (expected != nullptr && injected < inject) {
      body[0] ^= 0x20;
      ++injected;
    }
    if (expected != nullptr && body != *expected) {
      ++failed;
      errors.push_back("probe body differs from the solo mine");
      return;
    }
    const double server_ms = std::stod(response->Meta("latency_ms", "0"));
    if (latency) latency->push_back(ms);
    if (server) server->push_back(server_ms);
    if (response->Meta("cache") == "hit") wire_ms.push_back(ms - server_ms);
  };
  auto append = [&](const std::string& target) {
    ++attempted;
    const int appended = static_cast<int>(append_ms.size());
    if (appended >= max_appends) Die("probe ran out of append batches");
    const uint32_t begin = static_cast<uint32_t>(appended) * batch;
    const AppendTiming timing = AppendBatch(target, txns, begin, begin + batch,
                                            base.dict(), base.taxonomy());
    append_ms.push_back(timing.session_ms);
    commit_ms.push_back(timing.commit_ms);
    bytes_per_txn.push_back(static_cast<double>(timing.bytes) / batch);
    threads_peak = std::max(threads_peak, ProcThreads(pid));
  };

  const std::string expected = SoloBody(path, params);
  query(&expected, nullptr, nullptr);
  std::mt19937_64 rng(seed);
  const size_t check_phase = rng() % 3;
  bool reloaded = false;
  std::string step;
  while (std::getline(std::cin, step) && step != "end") {
    if (step == "hit") {
      if (reloaded) Die("a hit step after a reload step");
      query(&expected, &hit_ms, &hit_server_ms);
    } else if (step == "append") {
      append(append_path);
    } else if (step == "reload") {
      reloaded = true;
      append(path);
      if (post_append_ms.size() % 3 == check_phase) {
        const std::string now = SoloBody(path, params);
        query(&now, &post_append_ms, nullptr);
      } else {
        query(nullptr, &post_append_ms, nullptr);
      }
    } else {
      Die("unknown probe step '" + step + "'");
    }
    std::cout << "ok" << std::endl;
  }
  const double cpu_ms = ProcCpuMs(pid) - cpu_before;
  std::string error_list = "[";
  for (size_t i = 0; i < errors.size() && i < 10; ++i) {
    error_list += (i ? "," : "") + Quote(errors[i]);
  }
  error_list += "]";
  WriteJsonObject(args.Required("out"),
                  {{"attempted", std::to_string(attempted)},
                   {"failed", std::to_string(failed)},
                   {"errors", error_list},
                   {"cpu_ms", Num(cpu_ms)},
                   {"threads_peak", std::to_string(threads_peak)},
                   {"query_ms", NumList(query_ms)},
                   {"hit_ms", NumList(hit_ms)},
                   {"hit_server_ms", NumList(hit_server_ms)},
                   {"hit_wire_ms", NumList(wire_ms)},
                   {"append_ms", NumList(append_ms)},
                   {"append_commit_ms", NumList(commit_ms)},
                   {"append_bytes_per_txn", NumList(bytes_per_txn)},
                   {"post_append_query_ms", NumList(post_append_ms)},
                   {"stats", StatsBody(socket)}});
  return 0;
}

// --- layers ------------------------------------------------------------

/// Driver-timed calls into each layer's public function, over the
/// workload's own stores and queries, kLayerReps times each (medians):
/// StoreReader::Open, StoreWriter::Create..Finish, LevelViews::Build,
/// FlipperMiner::Run over pre-built views, RenderPatterns, and one
/// ExecuteMineRequest with a MetricsRegistry for the program's own
/// stage timings. `--query store|k=v;k=v` picks the queries; without
/// one, each store is mined at each of its served profiles.
constexpr int kLayerReps = 5;

int Layers(const Args& args) {
  const std::vector<StoreArg> stores = ParseStores(args);
  std::string store_json = "{";
  for (size_t s = 0; s < stores.size(); ++s) {
    const StoreArg& store = stores[s];
    std::vector<double> open_ms, write_s, build_ms;
    for (int i = 0; i < kLayerReps; ++i) {
      const int64_t start = NowNs();
      auto reader =
          Check(flipper::storage::StoreReader::Open(store.path), "open");
      open_ms.push_back(MsSince(start));
    }
    auto reader = Check(flipper::storage::StoreReader::Open(store.path), "open");
    const std::string copy = "layers." + store.name + ".fdb";
    for (int i = 0; i < kLayerReps / 2; ++i) {
      const int64_t start = NowNs();
      auto writer = Check(flipper::storage::StoreWriter::Create(copy), "Create");
      for (uint32_t t = 0; t < reader.db().size(); ++t) {
        Check(writer.Append(reader.db().Get(t)), "Append");
      }
      Check(writer.Finish(reader.dict(), reader.taxonomy()), "Finish");
      write_s.push_back(MsSince(start) / 1e3);
    }
    const uintmax_t bytes = std::filesystem::file_size(copy);
    flipper::ThreadPool pool(0);
    flipper::LevelViews::BuildOptions view_options;
    view_options.build_catalogs = true;
    std::optional<flipper::LevelViews> views;
    for (int i = 0; i < kLayerReps; ++i) {
      const int64_t start = NowNs();
      views.emplace(Check(flipper::LevelViews::Build(
                              reader.db(), reader.taxonomy(), &pool,
                              view_options),
                          "views"));
      build_ms.push_back(MsSince(start));
    }

    std::vector<Params> queries;
    for (const std::string& spec : args.All("query")) {
      const size_t bar = spec.find('|');
      if (spec.substr(0, bar) != store.name) continue;
      Params params;
      std::istringstream items(spec.substr(bar + 1));
      std::string item;
      while (std::getline(items, item, ';')) {
        const size_t eq = item.find('=');
        params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
      }
      queries.push_back(std::move(params));
    }
    if (!args.Has("query")) {
      for (const std::string& minsup : ProfilesFor(store.name)) {
        queries.push_back({{"minsup", minsup}, {"format", "csv"}});
      }
    }
    std::string query_json = "[";
    int q = 0;
    for (const Params& params : queries) {
      const flipper::service::MineRequest request = RequestOf(params);
      const flipper::MiningConfig config =
          flipper::service::ToMiningConfig(request);
      std::vector<double> run_ms, render_ms;
      for (int i = 0; i < kLayerReps; ++i) {
        int64_t start = NowNs();
        flipper::MiningResult result = Check(
            flipper::FlipperMiner::Run(reader.db(), reader.taxonomy(),
                                       config, &*views),
            "run");
        run_ms.push_back(MsSince(start));
        start = NowNs();
        std::ostringstream body;
        Check(flipper::service::RenderPatterns(result.patterns,
                                               &reader.dict(),
                                               request.format, body),
              "render");
        render_ms.push_back(MsSince(start));
      }
      flipper::MetricsRegistry registry;
      Check(flipper::service::ExecuteMineRequest(reader.db(),
                                                 reader.taxonomy(),
                                                 &reader.dict(), nullptr,
                                                 request, &registry)
                .status(),
            "metrics run");
      std::ostringstream registry_json;
      registry.WriteJson(registry_json);
      std::string param_json = "{";
      for (size_t i = 0; i < params.size(); ++i) {
        param_json += (i ? ", " : "") + Quote(params[i].first) + ": " +
                      Quote(params[i].second);
      }
      param_json += "}";
      query_json += std::string(q++ ? "," : "") + "{\"params\": " +
                    param_json + ", \"run_ms\": " +
                    Num(Median(run_ms)) + ", \"render_ms\": " +
                    Num(Median(render_ms)) +
                    ", \"registry\": " + registry_json.str() + "}";
    }
    query_json += "]";
    store_json += std::string(s ? ",\n" : "\n") + Quote(store.name) +
                  ": {\"open_ms\": " + Num(Median(open_ms)) +
                  ", \"write_s\": " + Num(Median(write_s)) +
                  ", \"bytes\": " + Num(static_cast<double>(bytes)) +
                  ", \"items\": " +
                  Num(static_cast<double>(reader.db().total_items())) +
                  ", \"views_build_ms\": " + Num(Median(build_ms)) +
                  ", \"queries\": " + query_json + "}";
    std::filesystem::remove(copy);
  }
  store_json += "}";
  WriteJsonObject(args.Required("out"), {{"stores", store_json}});
  return 0;
}

// --- fingerprint -------------------------------------------------------

int Fingerprint(const Args& args) {
  WriteJsonObject(
      args.Required("out"),
      {{"compiler", Quote(PERFBENCH_COMPILER)},
       {"cxx_flags", Quote(PERFBENCH_CXX_FLAGS)},
       {"build_type", Quote(PERFBENCH_BUILD_TYPE)},
       {"trie_probe", Quote((flipper::trie_probe::ResolvedPackedKernel(),
                             flipper::trie_probe::PackedKernelName()))}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const perfbench::Args args(argc, argv);
  if (command == "load") return perfbench::Load(args);
  if (command == "probe") return perfbench::Probe(args);
  if (command == "layers") return perfbench::Layers(args);
  if (command == "fingerprint") return perfbench::Fingerprint(args);
  std::cerr << "usage: perfbench_driver load|probe|layers|fingerprint "
               "--out PATH [...]\n";
  return 2;
}
