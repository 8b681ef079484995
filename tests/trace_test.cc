// Observability: the trace subsystem (common/trace.h). Disabled
// recording is a no-op, spans survive concurrent recording from many
// threads (the TSan target for the lock-free per-thread buffers), the
// Chrome JSON export is structurally valid, tracing does not change
// mined patterns, the CLI writes --trace-out files, and — the
// acceptance bar — the driver-thread stage spans cover >= 95% of the
// mining wall time on the groceries example and on a quest run with
// scan-driven cells.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "common/trace.h"
#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "datagen/groceries_sim.h"
#include "test_util.h"

namespace flipper {
namespace {

/// Every trace test owns the global recorder for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::SetEnabled(false);
    trace::Clear();
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::Clear();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(trace::Enabled());
  {
    FLIPPER_TRACE_SPAN("noop", "stage");
    FLIPPER_TRACE_SPAN_HK("noop_hk", "stage", 2, 3);
  }
  trace::Span span;
  span.name = "direct";
  span.cat = "stage";
  trace::RecordSpan(span);
  EXPECT_EQ(trace::SpanCount(), 0u);
}

TEST_F(TraceTest, RecordsSpansWithArgsAndNames) {
  trace::SetEnabled(true);
  trace::SetThreadName("test-main");
  {
    FLIPPER_TRACE_SPAN("alpha", "stage");
    FLIPPER_TRACE_SPAN_HK("beta", "detail", 3, 4);
  }
  trace::SetEnabled(false);
  ASSERT_EQ(trace::SpanCount(), 2u);

  std::map<std::string, trace::Span> by_name;
  std::string thread_name;
  const int my_tid = trace::CurrentThreadId();
  trace::ForEachSpan(
      [&](int tid, const std::string& name, const trace::Span& s) {
        EXPECT_EQ(tid, my_tid);
        thread_name = name;
        by_name[s.name] = s;
      });
  EXPECT_EQ(thread_name, "test-main");
  ASSERT_TRUE(by_name.count("alpha"));
  ASSERT_TRUE(by_name.count("beta"));
  EXPECT_STREQ(by_name["alpha"].cat, "stage");
  EXPECT_EQ(by_name["alpha"].arg_kind, trace::Span::ArgKind::kNone);
  EXPECT_EQ(by_name["beta"].arg_kind, trace::Span::ArgKind::kCell);
  EXPECT_EQ(by_name["beta"].arg0, 3);
  EXPECT_EQ(by_name["beta"].arg1, 4);
  // Both spans closed inside the same enclosing block: the inner one
  // (destroyed first) cannot outlast the outer.
  EXPECT_GE(by_name["beta"].start_ns, by_name["alpha"].start_ns);
}

TEST_F(TraceTest, ClearDropsSpansButKeepsRecording) {
  trace::SetEnabled(true);
  { FLIPPER_TRACE_SPAN("before", "stage"); }
  EXPECT_EQ(trace::SpanCount(), 1u);
  trace::Clear();
  EXPECT_EQ(trace::SpanCount(), 0u);
  { FLIPPER_TRACE_SPAN("after", "stage"); }
  EXPECT_EQ(trace::SpanCount(), 1u);
}

// The TSan target: many threads recording concurrently (chunk
// rollover included — 3000 spans per thread crosses the 4096-span
// chunk boundary in aggregate and per-buffer), with a concurrent
// exporter reading published counts.
TEST_F(TraceTest, ConcurrentRecordingIsSafeAndLosesNothing) {
  trace::SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 5000;  // > one 4096-span chunk
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      trace::SetThreadName("recorder");
      for (int i = 0; i < kSpansPerThread; ++i) {
        FLIPPER_TRACE_SPAN_HK("concurrent", "task", t, i);
      }
    });
  }
  // Concurrent reader: export while recording is in flight (the API
  // documents this as safe; spans published later may be missed).
  std::ostringstream racing_export;
  trace::ExportChromeJson(racing_export);
  for (auto& th : threads) th.join();
  trace::SetEnabled(false);

  EXPECT_EQ(trace::SpanCount(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  // Per-thread order is preserved: arg1 (the loop index) must be
  // strictly increasing within each tid.
  std::map<int, int64_t> last_index;
  trace::ForEachSpan(
      [&](int tid, const std::string&, const trace::Span& s) {
        if (std::string(s.name) != "concurrent") return;
        auto [it, inserted] = last_index.emplace(tid, s.arg1);
        if (!inserted) {
          EXPECT_LT(it->second, s.arg1);
          it->second = s.arg1;
        }
      });
  EXPECT_EQ(last_index.size(), static_cast<size_t>(kThreads));
}

/// Splits an ExportChromeJson document into lines and runs structural
/// checks shared by the in-process and CLI-file tests. Returns the
/// event lines (everything between the header and the closing line).
std::vector<std::string> ValidateChromeJson(const std::string& json) {
  std::vector<std::string> lines;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  EXPECT_GE(lines.size(), 3u);
  EXPECT_EQ(lines.front(), "{\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "]}");
  std::vector<std::string> events(lines.begin() + 1, lines.end() - 1);
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string& e = events[i];
    // One event per line, objects comma-separated except the last.
    EXPECT_EQ(e.rfind("{", 0), 0u) << e;
    if (i + 1 < events.size()) {
      EXPECT_EQ(e.substr(e.size() - 2), "},") << e;
    } else {
      EXPECT_EQ(e.back(), '}') << e;
    }
    EXPECT_NE(e.find("\"ph\":"), std::string::npos) << e;
    EXPECT_NE(e.find("\"pid\":1"), std::string::npos) << e;
  }
  return events;
}

TEST_F(TraceTest, ChromeJsonExportIsStructurallyValid) {
  trace::SetEnabled(true);
  trace::SetThreadName("test \"main\"");  // exercises escaping
  { FLIPPER_TRACE_SPAN("alpha", "stage"); }
  { FLIPPER_TRACE_SPAN_HK("beta", "detail", 2, 5); }
  trace::SetEnabled(false);

  std::ostringstream out;
  trace::ExportChromeJson(out);
  const std::vector<std::string> events = ValidateChromeJson(out.str());

  bool saw_metadata = false;
  bool saw_alpha = false;
  bool saw_beta = false;
  for (const std::string& e : events) {
    if (e.find("\"ph\":\"M\"") != std::string::npos) {
      EXPECT_NE(e.find("\"thread_name\""), std::string::npos);
      EXPECT_NE(e.find("test \\\"main\\\""), std::string::npos);
      saw_metadata = true;
    }
    if (e.find("\"name\":\"alpha\"") != std::string::npos) {
      saw_alpha = true;
      EXPECT_NE(e.find("\"ph\":\"X\""), std::string::npos);
      EXPECT_NE(e.find("\"cat\":\"stage\""), std::string::npos);
      EXPECT_NE(e.find("\"ts\":"), std::string::npos);
      EXPECT_NE(e.find("\"dur\":"), std::string::npos);
    }
    if (e.find("\"name\":\"beta\"") != std::string::npos) {
      saw_beta = true;
      EXPECT_NE(e.find("\"args\":{\"h\":2,\"k\":5}"), std::string::npos)
          << e;
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_beta);
}

std::string PatternsCsv(const MiningResult& result) {
  std::ostringstream out;
  EXPECT_TRUE(WritePatternsCsv(result.patterns, nullptr, out).ok());
  return out.str();
}

TEST_F(TraceTest, TracingDoesNotChangeMinedPatterns) {
  testutil::Dataset data = testutil::RandomDataset(99);
  MiningConfig config;
  config.gamma = 0.4;
  config.epsilon = 0.2;
  config.min_support = {0.05, 0.02, 0.02};
  config.num_threads = 4;

  auto plain = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(plain.ok()) << plain.status();

  trace::SetEnabled(true);
  auto traced = FlipperMiner::Run(data.db, data.taxonomy, config);
  trace::SetEnabled(false);
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_GT(trace::SpanCount(), 0u);

  EXPECT_EQ(PatternsCsv(*plain), PatternsCsv(*traced));
}

/// Mines with tracing on and checks the acceptance bar: the
/// non-overlapping driver-thread "stage" spans must account for >= 95%
/// of the root "mine" span's wall time — i.e. the trace explains where
/// a mining run's time goes instead of leaving untraced gaps — and
/// every stage in `stages` appears. Returns the run's stats.
MiningStats ExpectStageCoverage(const TransactionDb& db,
                                const Taxonomy& taxonomy,
                                const MiningConfig& config,
                                const std::vector<std::string>& stages) {
  trace::SetEnabled(true);
  auto result = FlipperMiner::Run(db, taxonomy, config);
  trace::SetEnabled(false);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};

  uint64_t mine_dur_ns = 0;
  int driver_tid = -1;
  trace::ForEachSpan(
      [&](int tid, const std::string&, const trace::Span& s) {
        if (std::string(s.cat) == "run" &&
            std::string(s.name) == "mine") {
          mine_dur_ns = s.dur_ns;
          driver_tid = tid;
        }
      });
  EXPECT_GT(mine_dur_ns, 0u);
  EXPECT_GE(driver_tid, 0);

  uint64_t stage_dur_ns = 0;
  std::map<std::string, uint64_t> per_stage;
  trace::ForEachSpan(
      [&](int tid, const std::string&, const trace::Span& s) {
        if (tid != driver_tid) return;
        if (std::string(s.cat) != "stage") return;
        stage_dur_ns += s.dur_ns;
        per_stage[s.name] += s.dur_ns;
      });

  const double coverage =
      static_cast<double>(stage_dur_ns) / mine_dur_ns;
  EXPECT_GE(coverage, 0.95)
      << "stage spans cover only " << coverage * 100.0
      << "% of the mine span";
  // Stages never nest or overlap on the driver thread, so their sum
  // cannot exceed the root (small epsilon for clock granularity).
  EXPECT_LE(coverage, 1.001);
  for (const std::string& stage : stages) {
    EXPECT_TRUE(per_stage.count(stage)) << "no '" << stage << "' span";
  }
  trace::Clear();
  return result->stats;
}

TEST_F(TraceTest, StageSpansCoverMiningWallTime) {
  GroceriesParams params;
  params.num_transactions = 9'800;
  auto dataset = GenerateGroceries(params);
  ASSERT_TRUE(dataset.ok()) << dataset.status();

  MiningConfig config;
  config.gamma = 0.3;
  config.epsilon = 0.1;
  config.min_support = {0.01, 0.005, 0.002, 0.001};
  config.num_threads = 0;  // hardware concurrency
  {
    SCOPED_TRACE("groceries");
    ExpectStageCoverage(dataset->db, dataset->taxonomy, config,
                        {"pool_start", "views_build", "singletons",
                         "count_wait", "evaluate", "evict", "assemble"});
  }

  // A run whose scan-driven cells count through the same stages.
  SCOPED_TRACE("quest with scan-driven cells");
  const testutil::Dataset quest = testutil::QuestScanDataset();
  MiningConfig quest_config = testutil::QuestScanConfig();
  quest_config.num_threads = 0;
  const MiningStats stats =
      ExpectStageCoverage(quest.db, quest.taxonomy, quest_config,
                          {"count_start", "count_wait", "subset_filter",
                           "evaluate"});
  EXPECT_GT(stats.scan_cell_scans, 0u);
}

/// Drives RunFlipperCli as a subprocess would, capturing both streams.
int RunCli(const std::vector<std::string>& cli_args,
           std::string* out_text, std::string* err_text) {
  std::vector<const char*> argv;
  argv.push_back("flipper_cli");
  for (const std::string& arg : cli_args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int rc = RunFlipperCli(static_cast<int>(argv.size()),
                               argv.data(), out, err);
  *out_text = out.str();
  *err_text = err.str();
  return rc;
}

TEST_F(TraceTest, CliWritesTraceAndMetricsFilesAndLeavesTracingOff) {
  const std::string store = ::testing::TempDir() + "trace_cli.fdb";
  const std::string trace_path =
      ::testing::TempDir() + "trace_cli.json";
  const std::string metrics_path =
      ::testing::TempDir() + "trace_cli_metrics.json";
  std::string out;
  std::string err;
  ASSERT_EQ(RunCli({"datagen", "groceries", store, "--txns", "2000"},
                   &out, &err),
            0)
      << err;
  ASSERT_EQ(RunCli({"mine", "--input", store, "--gamma=0.3",
                    "--epsilon=0.1", "--minsup=0.01,0.005,0.002,0.001",
                    "--trace-out", trace_path, "--metrics-json",
                    metrics_path},
                   &out, &err),
            0)
      << err;
  EXPECT_FALSE(trace::Enabled());  // the CLI restores the global state

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.is_open()) << metrics_path;
  std::stringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  const std::string metrics = metrics_buf.str();
  EXPECT_NE(metrics.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"mine.cells\""), std::string::npos);
  EXPECT_NE(metrics.find("\"pool.utilization\""), std::string::npos);
  EXPECT_NE(metrics.find("\"stage.count_wait_ms\""), std::string::npos);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.is_open()) << trace_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::vector<std::string> events = ValidateChromeJson(buf.str());
  bool saw_mine = false;
  bool saw_driver = false;
  for (const std::string& e : events) {
    if (e.find("\"name\":\"mine\"") != std::string::npos) {
      saw_mine = true;
    }
    if (e.find("\"driver\"") != std::string::npos) saw_driver = true;
  }
  EXPECT_TRUE(saw_mine);
  EXPECT_TRUE(saw_driver);
}

// The satellite-1 isolation proof: two miner runs traced CONCURRENTLY,
// each into its own Session, must stay fully separate — every session
// sees exactly one "mine" root span (its own run's), the span totals
// account for both runs independently, and nothing leaks into the
// process-default session. Before sessions existed this was impossible:
// both runs' spans landed interleaved in one global buffer.
TEST_F(TraceTest, ConcurrentSessionsIsolateTheirSpans) {
  testutil::Dataset data = testutil::RandomDataset(77);
  MiningConfig config;
  config.gamma = 0.4;
  config.epsilon = 0.2;
  config.min_support = {0.05, 0.02, 0.02};
  config.num_threads = 2;

  auto solo = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(solo.ok()) << solo.status();
  const std::string expected = PatternsCsv(*solo);

  constexpr int kRuns = 2;
  trace::Session sessions[kRuns];
  std::string bodies[kRuns];
  std::vector<std::thread> threads;
  for (int i = 0; i < kRuns; ++i) {
    sessions[i].SetEnabled(true);
    threads.emplace_back([&, i]() {
      trace::SessionScope scope(&sessions[i]);
      auto result = FlipperMiner::Run(data.db, data.taxonomy, config);
      ASSERT_TRUE(result.ok()) << result.status();
      bodies[i] = PatternsCsv(*result);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kRuns; ++i) {
    sessions[i].SetEnabled(false);
    EXPECT_EQ(bodies[i], expected) << "run " << i;
    EXPECT_GT(sessions[i].SpanCount(), 0u) << "run " << i;
    size_t mine_roots = 0;
    sessions[i].ForEachSpan(
        [&](int, const std::string&, const trace::Span& span) {
          if (std::string_view(span.name) == "mine") ++mine_roots;
        });
    EXPECT_EQ(mine_roots, 1u) << "run " << i
                              << " must hold exactly its own root span";
  }
  // Nothing leaked into the process-default session.
  EXPECT_EQ(trace::SpanCount(), 0u);
}

}  // namespace
}  // namespace flipper
