// Micro-benchmarks: correlation measure evaluation, candidate-trie
// counting, itemset operations, and the thread-scaling series for the
// sharded counting engine.
//
// Self-contained harness (no external benchmark dependency): every case
// runs a warm-up pass plus FLIPPER_BENCH_REPS timed repetitions and
// reports the median wall-clock ms and a rows/s throughput. Results are
// printed as a table and written as machine-readable JSON to
// ./bench_results/bench_micro.json so future PRs have a perf
// trajectory to compare against.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/env.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/candidate_trie.h"
#include "core/flipper_miner.h"
#include "core/pipeline_metrics.h"
#include "core/scan_counter.h"
#include "core/support_counting.h"
#include "data/db_io.h"
#include "data/item_dictionary.h"
#include "data/itemset.h"
#include "data/transaction_db.h"
#include "datagen/groceries_sim.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "measures/measure.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"

namespace flipper {
namespace {

struct CaseResult {
  std::string name;
  int threads = 1;
  int reps = 0;
  double median_ms = 0.0;
  /// Upper-tail repetition (p95 over the timed reps; the max at the
  /// smoke rep counts) — recorded so the trajectory file can catch
  /// variance regressions that leave the median flat.
  double p95_ms = 0.0;
  /// Process high-water RSS after this case ran (getrusage; monotone
  /// across cases, so the trajectory shows which case first reached
  /// each plateau).
  int64_t peak_rss_bytes = 0;
  /// Case-defined work items per second (transactions for scans,
  /// evaluations for the arithmetic kernels).
  double rows_per_sec = 0.0;
  /// Speedup over the series' baseline case (0 = n/a); `speedup_key`
  /// names the baseline in the JSON so cases with different baselines
  /// (1-thread scan vs scalar probe kernel) are not conflated.
  double speedup = 0.0;
  const char* speedup_key = "speedup_vs_1t";
  /// Extra `"key": value` JSON fields for this case (pre-rendered,
  /// comma-prefixed on emit), e.g. scan_counter_arena's grow events.
  std::string extra_json;
};

int NumReps() {
  const double scale = BenchScale();
  return scale >= 1.0 ? 5 : 3;
}

/// Times `fn` (one warm-up + `reps` timed runs) and derives rows/s from
/// the median repetition.
CaseResult RunCase(const std::string& name, int threads,
                   double rows_per_rep,
                   const std::function<void()>& fn) {
  CaseResult out;
  out.name = name;
  out.threads = threads;
  out.reps = NumReps();
  fn();  // warm-up
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(out.reps));
  for (int r = 0; r < out.reps; ++r) {
    WallTimer timer;
    fn();
    ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  out.median_ms = ms[ms.size() / 2];
  out.p95_ms = ms[(ms.size() * 95 + 99) / 100 - 1];
  out.peak_rss_bytes = PeakRssBytes();
  if (out.median_ms > 0.0) {
    out.rows_per_sec = rows_per_rep / (out.median_ms / 1e3);
  }
  return out;
}

void EmitResults(const std::vector<CaseResult>& results) {
  TablePrinter table({"case", "threads", "reps", "median_ms", "p95_ms",
                      "rows/s", "speedup", "peak_rss"});
  for (const CaseResult& r : results) {
    table.AddRow({r.name, std::to_string(r.threads),
                  std::to_string(r.reps), FormatDouble(r.median_ms, 3),
                  FormatDouble(r.p95_ms, 3),
                  FormatDouble(r.rows_per_sec, 0),
                  r.speedup > 0.0 ? FormatDouble(r.speedup, 2) : "-",
                  FormatBytes(r.peak_rss_bytes)});
  }
  table.Print(std::cout);

  std::string json = "{\n  \"bench\": \"bench_micro\",\n  \"scale\": " +
                     FormatDouble(BenchScale(), 2) +
                     ",\n  \"hardware_threads\": " +
                     std::to_string(ThreadPool::ResolveThreadCount(0)) +
                     ",\n  \"cases\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    json += "    {\"name\": \"" + JsonEscape(r.name) +
            "\", \"threads\": " + std::to_string(r.threads) +
            ", \"reps\": " + std::to_string(r.reps) +
            ", \"median_ms\": " + FormatDouble(r.median_ms, 4) +
            ", \"p95_ms\": " + FormatDouble(r.p95_ms, 4) +
            ", \"peak_rss_bytes\": " + std::to_string(r.peak_rss_bytes) +
            ", \"rows_per_sec\": " + FormatDouble(r.rows_per_sec, 1);
    if (r.speedup > 0.0) {
      json += ", \"" + std::string(r.speedup_key) +
              "\": " + FormatDouble(r.speedup, 3);
    }
    if (!r.extra_json.empty()) json += ", " + r.extra_json;
    json += i + 1 < results.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) {
    std::cout << "\n[json] skipped: cannot create bench_results/: "
              << ec.message() << "\n";
    return;
  }
  const std::string path = "bench_results/bench_micro.json";
  std::ofstream out(path);
  if (out) {
    out << json;
    std::cout << "\n[json] " << path << "\n";
  } else {
    std::cout << "\n[json] skipped: cannot open " << path << "\n";
  }
}

void BenchCorrelation(std::vector<CaseResult>* results) {
  for (const auto& [kind, kind_name] :
       {std::pair{MeasureKind::kKulczynski, "kulc"},
        std::pair{MeasureKind::kCosine, "cosine"}}) {
    for (size_t k : {size_t{2}, size_t{8}}) {
      std::vector<uint32_t> sups(k);
      Rng rng(1);
      for (auto& s : sups) {
        s = static_cast<uint32_t>(rng.Uniform(100, 10000));
      }
      constexpr int kEvals = 2'000'000;
      results->push_back(RunCase(
          std::string("correlation_") + kind_name + "_k" +
              std::to_string(k),
          1, kEvals, [&] {
            double acc = 0.0;
            for (int i = 0; i < kEvals; ++i) {
              acc += Correlation(kind, 90, sups);
            }
            if (acc < 0.0) std::abort();  // keep the loop observable
          }));
    }
  }
}

void BenchItemsetOps(std::vector<CaseResult>* results) {
  constexpr int kIters = 2'000'000;
  results->push_back(RunCase("itemset_insert_hash", 1, kIters, [&] {
    Rng rng(3);
    uint64_t acc = 0;
    for (int i = 0; i < kIters; ++i) {
      Itemset s;
      for (int j = 0; j < 8; ++j) {
        s.Insert(static_cast<ItemId>(rng.Below(100000)));
      }
      acc += s.Hash();
    }
    if (acc == 0) std::abort();
  }));
  results->push_back(RunCase("prefix_join", 1, kIters, [&] {
    const Itemset a{1, 2, 3, 4, 5, 6, 7};
    const Itemset b{1, 2, 3, 4, 5, 6, 9};
    int acc = 0;
    for (int i = 0; i < kIters; ++i) {
      acc += Itemset::PrefixJoin(a, b).has_value() ? 1 : 0;
    }
    if (acc == 0) std::abort();
  }));
}

/// Fixed synthetic counting workload shared by the serial trie case and
/// the thread-scaling series.
struct ScanWorkload {
  TransactionDb db;
  std::vector<Itemset> candidates;
};

ScanWorkload MakeScanWorkload(uint32_t num_txns, size_t num_candidates) {
  ScanWorkload out;
  Rng rng(11);
  const ItemId alphabet = 1000;
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < num_txns; ++t) {
    txn.clear();
    for (int i = 0; i < 8; ++i) {
      txn.push_back(static_cast<ItemId>(rng.Below(alphabet)));
    }
    out.db.Add(txn);
  }
  std::unordered_set<Itemset, ItemsetHash> seen;
  while (out.candidates.size() < num_candidates) {
    Itemset s;
    while (s.size() < 3) {
      s.Insert(static_cast<ItemId>(rng.Below(alphabet)));
    }
    if (seen.insert(s).second) out.candidates.push_back(s);
  }
  return out;
}

void BenchTrieCounting(std::vector<CaseResult>* results) {
  const auto num_txns = static_cast<uint32_t>(20'000 * BenchScale());
  for (size_t num_candidates : {size_t{1000}, size_t{10'000}}) {
    ScanWorkload w = MakeScanWorkload(num_txns, num_candidates);
    std::vector<uint32_t> supports(w.candidates.size());
    results->push_back(RunCase(
        "trie_count_" + std::to_string(num_candidates) + "c", 1,
        w.db.size(), [&] {
          CountBatchWithTrie(w.db, w.candidates, nullptr, supports);
        }));
  }
}

/// Probe-kernel shoot-out on synthetic sibling fanouts: scalar linear
/// scan vs the packed compare (SSE2/AVX2/portable word mask) vs
/// galloping, each resolving the same lower-bound queries.
void BenchProbeKernels(std::vector<CaseResult>* results) {
  Rng rng(31);
  for (const uint32_t fanout : {uint32_t{16}, uint32_t{256},
                                uint32_t{4096}}) {
    // Strictly increasing id stream with random gaps.
    std::vector<ItemId> items(fanout);
    ItemId next = 0;
    for (auto& item : items) {
      next += 1 + static_cast<ItemId>(rng.Below(8));
      item = next;
    }
    std::vector<ItemId> targets(1024);
    for (auto& t : targets) {
      t = static_cast<ItemId>(rng.Below(next + 8));
    }
    const int probes = static_cast<int>(
        std::max<uint32_t>(50'000, 4'000'000 / fanout));

    struct Kernel {
      const char* name;
      uint32_t (*fn)(const ItemId*, uint32_t, uint32_t, ItemId);
    };
    const Kernel kernels[] = {
        {"scalar", &trie_probe::LowerBoundScalar},
        {"packed", &trie_probe::LowerBoundPacked},
        {"gallop", &trie_probe::LowerBoundGallop},
    };
    double scalar_ms = 0.0;
    for (const Kernel& kernel : kernels) {
      CaseResult r = RunCase(
          std::string("trie_probe_kernels_") + kernel.name + "_f" +
              std::to_string(fanout),
          1, probes, [&] {
            uint64_t acc = 0;
            for (int i = 0; i < probes; ++i) {
              acc += kernel.fn(items.data(), 0,
                               static_cast<uint32_t>(items.size()),
                               targets[static_cast<size_t>(i) &
                                       (targets.size() - 1)]);
            }
            volatile uint64_t sink = acc;
            (void)sink;
          });
      if (kernel.name == kernels[0].name) {
        scalar_ms = r.median_ms;
      } else if (scalar_ms > 0.0 && r.median_ms > 0.0) {
        r.speedup = scalar_ms / r.median_ms;
        r.speedup_key = "speedup_vs_scalar";
      }
      if (std::string(kernel.name) == "packed") {
        r.extra_json = std::string("\"packed_kernel\": \"") +
                       trie_probe::PackedKernelName() + "\"";
      }
      results->push_back(r);
    }
  }
}

/// Row-level trie reuse: several consecutive batches (a row's cells)
/// counted against one database — a fresh trie + buffers per call vs
/// one warm CountBatchScratch rebuilt in place.
void BenchRowTrieReuse(std::vector<CaseResult>* results) {
  // Many small cells against a modest database: the shape where the
  // per-cell trie build + buffer setup is a visible fraction of the
  // scan, i.e. where the reuse seam pays.
  const auto num_txns = static_cast<uint32_t>(
      2'000 * std::max(0.25, BenchScale()));
  ScanWorkload w = MakeScanWorkload(num_txns, 4096);
  constexpr size_t kBatches = 16;
  const size_t per_batch = w.candidates.size() / kBatches;
  std::vector<uint32_t> supports(per_batch);
  const double rows_per_rep =
      static_cast<double>(w.db.size()) * kBatches;

  double fresh_ms = 0.0;
  for (const bool reuse : {false, true}) {
    CountBatchScratch scratch;
    CaseResult r = RunCase(
        reuse ? "row_trie_reuse_on" : "row_trie_reuse_off", 1,
        rows_per_rep, [&] {
          for (size_t b = 0; b < kBatches; ++b) {
            const std::span<const Itemset> batch(
                w.candidates.data() + b * per_batch, per_batch);
            CountBatchWithTrie(w.db, batch, nullptr, supports,
                               reuse ? &scratch : nullptr);
          }
        });
    if (!reuse) {
      fresh_ms = r.median_ms;
    } else if (fresh_ms > 0.0 && r.median_ms > 0.0) {
      r.speedup = fresh_ms / r.median_ms;
      r.speedup_key = "speedup_vs_fresh";
    }
    results->push_back(r);
  }
}

/// Scan-cell counter: the exact hot loop of the scan-driven cell (every
/// 3-subset of each filtered transaction bumped into the open-addressed
/// bump-arena table), warm across reps as in the pipeline's steady
/// state. The case reports its warm-rep grow events — which must be
/// zero: a warm table recounting the same data performs no allocation
/// at all.
void BenchScanCounters(std::vector<CaseResult>* results) {
  Rng rng(17);
  const auto num_txns =
      static_cast<uint32_t>(8'000 * std::max(0.25, BenchScale()));
  const ItemId alphabet = 600;
  TransactionDb db;
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < num_txns; ++t) {
    txn.clear();
    for (int i = 0; i < 10; ++i) {
      txn.push_back(static_cast<ItemId>(rng.Below(alphabet)));
    }
    std::sort(txn.begin(), txn.end());
    txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
    db.Add(txn);
  }
  constexpr int kSubset = 3;
  Itemset combo;
  const auto scan_into = [&](auto&& bump) {
    for (TxnId t = 0; t < db.size(); ++t) {
      const auto items = db.Get(t);
      if (items.size() < static_cast<size_t>(kSubset)) continue;
      ForEachCombination(items, kSubset, &combo, bump);
    }
  };

  ScanCounterTable table;
  uint64_t warm_grow_events = 0;
  CaseResult arena_case =
      RunCase("scan_counter_arena", 1, db.size(), [&] {
        const uint64_t before = table.grow_events();
        table.Reset(kSubset);
        scan_into([&](const Itemset& c) { table.Increment(c); });
        warm_grow_events = table.grow_events() - before;
      });
  // Every timed rep ran after RunCase's warm-up pass, so the table's
  // capacity was already sized for this workload: any growth here
  // means the warm path allocates, which it must not.
  if (warm_grow_events != 0) std::abort();
  arena_case.extra_json =
      "\"warm_grow_events\": " + std::to_string(warm_grow_events) +
      ", \"distinct_combos\": " + std::to_string(table.size()) +
      ", \"counter_bytes\": " + std::to_string(table.MemoryBytes());
  results->push_back(arena_case);
}

/// Thread-scaling series: the sharded trie-counting scan on a
/// fixed synthetic DB at 1..N threads. The JSON records speedup_vs_1t
/// so cross-PR runs can track the scaling curve.
void BenchThreadScaling(std::vector<CaseResult>* results) {
  const auto num_txns = static_cast<uint32_t>(50'000 * BenchScale());
  ScanWorkload w = MakeScanWorkload(num_txns, 5000);
  std::vector<uint32_t> supports(w.candidates.size());

  std::vector<int> thread_counts = {1, 2, 4};
  const int hw = ThreadPool::ResolveThreadCount(0);
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  double ms_1t = 0.0;
  for (int threads : thread_counts) {
    ThreadPool pool(threads);
    CaseResult r = RunCase(
        "horizontal_scan_threads_" + std::to_string(threads), threads,
        w.db.size(), [&] {
          CountBatchWithTrie(w.db, w.candidates, &pool, supports);
        });
    if (threads == 1) ms_1t = r.median_ms;
    if (ms_1t > 0.0 && r.median_ms > 0.0) {
      r.speedup = ms_1t / r.median_ms;
    }
    results->push_back(r);
  }
}

/// Per-stage wall-clock sums from a run's metrics snapshot as a
/// `"stages": {...}` JSON object (stage.<name>_ms histograms only; the
/// _cpu_ms twins are omitted — the trajectory cares about where the
/// wall time went).
std::string StagesJson(const MetricsRegistry::Snapshot& snap) {
  std::string out = "\"stages\": {";
  bool first = true;
  for (const auto& [name, hist] : snap.histograms) {
    constexpr const char kPrefix[] = "stage.";
    constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
    constexpr const char kSuffix[] = "_ms";
    constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() <= kPrefixLen + kSuffixLen ||
        name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) !=
            0) {
      continue;
    }
    if (name.size() >= 7 &&
        name.compare(name.size() - 7, 7, "_cpu_ms") == 0) {
      continue;
    }
    const std::string stage = name.substr(
        kPrefixLen, name.size() - kPrefixLen - kSuffixLen);
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(stage) +
           "\": " + FormatDouble(hist.sum_ms, 3);
  }
  out += "}";
  return out;
}

/// The full miner on a multi-cell quest workload (several rows and
/// columns stay alive), with a registry attached so the case records
/// its stage breakdown.
void BenchMiner(std::vector<CaseResult>* results) {
  ItemDictionary dict;
  TaxonomyGenParams tax_params;  // the paper's 10 roots x fanout 5, H=4
  auto taxonomy = GenerateBalancedTaxonomy(tax_params, &dict);
  if (!taxonomy.ok()) std::abort();
  QuestParams quest;
  quest.num_transactions =
      static_cast<uint32_t>(10'000 * BenchScale());
  quest.avg_width = 5.0;
  quest.seed = 42;
  auto db = GenerateQuest(quest, *taxonomy);
  if (!db.ok()) std::abort();

  MiningConfig config;
  config.gamma = 0.3;
  config.epsilon = 0.1;
  config.min_support = {0.01, 0.001, 0.0005, 0.0001};
  config.num_threads = 0;
  const int hw = ThreadPool::ResolveThreadCount(0);
  // A fresh registry per rep, so stage sums describe one run, not the
  // series; the recorded snapshot is the last timed rep's. The
  // registry's cost is part of what this case measures — the A/B pair
  // below bounds it.
  MetricsRegistry::Snapshot snap;
  double utilization = 0.0;
  CaseResult full = RunCase("miner_full", hw, db->size(), [&] {
    MetricsRegistry metrics;
    MiningConfig run_config = config;
    run_config.metrics = &metrics;
    auto result = FlipperMiner::Run(*db, *taxonomy, run_config);
    if (!result.ok()) std::abort();
    utilization = metrics.gauge("pool.utilization");
    snap = metrics.Snap();
  });
  full.extra_json =
      "\"pool_utilization\": " + FormatDouble(utilization, 4) +
      ", \"packed_kernel\": \"" +
      JsonEscape(trie_probe::PackedKernelName()) + "\", " +
      StagesJson(snap);
  results->push_back(full);

  // Observability overhead A/B on the same workload: tracing + metrics
  // completely off vs both on (span recording AND the registry). The
  // on-case records overhead_pct so the trajectory catches
  // instrumentation creep; the acceptance bar is < 2% on the median.
  double obs_off_ms = 0.0;
  for (const bool obs : {false, true}) {
    CaseResult r = RunCase(
        obs ? "miner_observability_on" : "miner_observability_off", hw,
        db->size(), [&] {
          MetricsRegistry metrics;
          MiningConfig run_config = config;
          run_config.metrics = obs ? &metrics : nullptr;
          if (obs) trace::SetEnabled(true);
          auto result = FlipperMiner::Run(*db, *taxonomy, run_config);
          if (obs) {
            trace::SetEnabled(false);
            trace::Clear();  // bound span memory across reps
          }
          if (!result.ok()) std::abort();
        });
    if (!obs) {
      obs_off_ms = r.median_ms;
    } else if (obs_off_ms > 0.0 && r.median_ms > 0.0) {
      const double overhead_pct =
          (r.median_ms / obs_off_ms - 1.0) * 100.0;
      r.extra_json =
          "\"overhead_pct\": " + FormatDouble(overhead_pct, 2);
      std::cout << "observability: tracing+metrics overhead "
                << FormatDouble(overhead_pct, 2) << "% of median\n";
    }
    results->push_back(r);
  }
}

/// Scratch dir unique to this process: ctest runs bench_smoke and
/// bench_record_smoke concurrently, and a shared fixed path would let
/// one process rewrite a store while the other mmaps it.
std::filesystem::path UniqueScratchDir(const char* tag,
                                       std::error_code& ec) {
  static const auto nonce =
      std::chrono::steady_clock::now().time_since_epoch().count();
  return std::filesystem::temp_directory_path(ec) /
         (std::string(tag) + "_" + std::to_string(nonce));
}

/// Dataset load paths on the groceries-sim dataset: basket-text
/// parsing (block-buffered) vs a FlipperStore open (zero-copy mmap),
/// with and without the payload validation scan. The fdb cases report
/// their speedup over the parse baseline in the speedup column/JSON
/// field.
void BenchStorage(std::vector<CaseResult>* results) {
  GroceriesParams params;
  params.num_transactions =
      static_cast<uint32_t>(9'800 * std::max(1.0, BenchScale()));
  auto dataset = GenerateGroceries(params);
  if (!dataset.ok()) std::abort();

  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = UniqueScratchDir("flipper_bench_storage", ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::cout << "[storage] skipped: cannot create " << dir << "\n";
    return;
  }
  const std::string basket = (dir / "groceries.basket").string();
  const std::string store = (dir / "groceries.fdb").string();
  if (!WriteBasketFile(dataset->db, dataset->dict, basket).ok() ||
      !storage::WriteStoreFile(store, dataset->db, dataset->dict,
                               dataset->taxonomy)
           .ok()) {
    std::abort();
  }

  const double rows = dataset->db.size();
  const CaseResult parse =
      RunCase("basket_parse_groceries", 1, rows, [&] {
        ItemDictionary dict;
        auto db = ReadBasketFile(basket, &dict);
        if (!db.ok() || db->size() != dataset->db.size()) std::abort();
      });
  results->push_back(parse);

  const auto bench_open = [&](const std::string& name, bool validate) {
    storage::OpenOptions open_options;
    open_options.validate = validate;
    CaseResult r = RunCase(name, 1, rows, [&] {
      auto reader = storage::StoreReader::Open(store, open_options);
      if (!reader.ok() || reader->db().size() != dataset->db.size()) {
        std::abort();
      }
    });
    if (parse.median_ms > 0.0 && r.median_ms > 0.0) {
      r.speedup = parse.median_ms / r.median_ms;
      r.speedup_key = "speedup_vs_parse";
    }
    results->push_back(r);
  };
  bench_open("fdb_open_groceries", true);
  bench_open("fdb_open_trusted_groceries", false);
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace flipper

int main() {
  using namespace flipper;
  std::cout << "bench_micro — kernel micro-benchmarks + thread scaling\n"
            << "scale: " << FormatDouble(BenchScale(), 2)
            << " (set FLIPPER_BENCH_SCALE to change), hardware threads: "
            << ThreadPool::ResolveThreadCount(0) << "\n\n";
  std::vector<CaseResult> results;
  BenchCorrelation(&results);
  BenchItemsetOps(&results);
  BenchTrieCounting(&results);
  BenchProbeKernels(&results);
  BenchRowTrieReuse(&results);
  BenchScanCounters(&results);
  BenchThreadScaling(&results);
  BenchMiner(&results);
  BenchStorage(&results);
  EmitResults(results);
  return 0;
}
