// Pipeline equivalence: the cell pipeline must produce a bit-identical
// MiningResult — patterns (with chain supports and correlations),
// per-cell stats and run-level counters — at 1/2/4/hardware threads
// and through v1/v2 store round trips, on the datagen scenarios
// (groceries, census, quest), including a quest profile that pushes
// cells into the scan-driven strategy.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/flipper_miner.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "datagen/census_sim.h"
#include "datagen/groceries_sim.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "test_util.h"

namespace flipper {
namespace {

/// Everything that must be bit-identical across thread counts:
/// patterns (chains embed per-level supports, correlations, labels),
/// the integer fields of every per-cell stat in order, and the
/// run-level counters. Wall-clock fields are excluded.
std::string Fingerprint(const MiningResult& result) {
  std::string out;
  for (const FlippingPattern& p : result.patterns) {
    out += p.ToString() + "\n";
  }
  for (const CellStats& c : result.stats.cells) {
    out += "cell " + std::to_string(c.h) + "," + std::to_string(c.k) +
           ": g=" + std::to_string(c.generated) +
           " c=" + std::to_string(c.counted) +
           " f=" + std::to_string(c.frequent) +
           " l=" + std::to_string(c.labeled) +
           " a=" + std::to_string(c.alive) + "\n";
  }
  const MiningStats& s = result.stats;
  out += "gen=" + std::to_string(s.total_generated) +
         " cnt=" + std::to_string(s.total_counted) +
         " scans=" + std::to_string(s.db_scans) +
         " scan_cell=" + std::to_string(s.scan_cell_scans) +
         " tpg=" + std::to_string(s.tpg_stopped_at) +
         " sibp=" + std::to_string(s.sibp_banned_items) +
         " pos=" + std::to_string(s.num_positive) +
         " neg=" + std::to_string(s.num_negative) + "\n";
  return out;
}

struct Scenario {
  std::string name;
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
  MiningConfig config;
  /// The scenario must drive at least one cell into the scan-driven
  /// strategy (checked on the reference run).
  bool expect_scan_cells = false;
};

Scenario GroceriesScenario() {
  Scenario s;
  s.name = "groceries";
  GroceriesParams params;
  params.num_transactions = 3'000;
  auto data = GenerateGroceries(params);
  EXPECT_TRUE(data.ok()) << data.status();
  s.dict = std::move(data->dict);
  s.taxonomy = std::move(data->taxonomy);
  s.db = std::move(data->db);
  s.config = data->paper_config;
  return s;
}

Scenario CensusScenario() {
  Scenario s;
  s.name = "census";
  CensusParams params;
  params.num_records = 4'000;
  auto data = GenerateCensus(params);
  EXPECT_TRUE(data.ok()) << data.status();
  s.dict = std::move(data->dict);
  s.taxonomy = std::move(data->taxonomy);
  s.db = std::move(data->db);
  s.config = data->paper_config;
  return s;
}

/// Quest workload at low support thresholds with FLIPPING-only
/// pruning — the profile the scan-strategy ablation uses — so the
/// cartesian children product explodes and the planner switches to
/// the scan-driven cell.
Scenario QuestScanScenario() {
  Scenario s;
  s.name = "quest";
  TaxonomyGenParams tax_params;
  tax_params.num_roots = 10;
  tax_params.fanout = 5;
  tax_params.depth = 4;
  auto tax = GenerateBalancedTaxonomy(tax_params, &s.dict);
  EXPECT_TRUE(tax.ok()) << tax.status();
  s.taxonomy = std::move(tax).value();
  QuestParams quest;
  quest.num_transactions = 4'000;
  quest.avg_width = 5.0;
  quest.num_patterns = 500;
  quest.seed = 42;
  auto db = GenerateQuest(quest, s.taxonomy);
  EXPECT_TRUE(db.ok()) << db.status();
  s.db = std::move(db).value();
  s.config.gamma = 0.3;
  s.config.epsilon = 0.1;
  s.config.min_support = {0.01, 0.001, 0.0005, 0.0001};
  s.config.pruning = PruningOptions::FlippingOnly();
  s.expect_scan_cells = true;
  return s;
}

void RunScenario(Scenario s) {
  SCOPED_TRACE(s.name);
  MiningConfig config = s.config;
  config.num_threads = 1;
  auto reference = FlipperMiner::Run(s.db, s.taxonomy, config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string reference_fp = Fingerprint(*reference);
  if (s.expect_scan_cells) {
    EXPECT_GT(reference->stats.scan_cell_scans, 0u)
        << "scenario never hit the scan-driven strategy";
    EXPECT_GE(reference->stats.db_scans,
              reference->stats.scan_cell_scans);
  }

  // 1/2/4 threads plus whatever the hardware reports (0 resolves to
  // it): every run must be byte-identical to the reference.
  for (int threads : {1, 2, 4, 0}) {
    config.num_threads = threads;
    auto run = FlipperMiner::Run(s.db, s.taxonomy, config);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(Fingerprint(*run), reference_fp) << "threads=" << threads;
  }

  // The same scenario through both FlipperStore round trips: a v1
  // store (raw columns, no catalog) and a legacy v2 store (varint
  // columns + segment catalog, small segments) must reproduce the
  // reference fingerprint at 1 and 4 threads.
  for (uint32_t version :
       {storage::kFormatVersionV1, storage::kFormatVersionV2}) {
    const std::string path = ::testing::TempDir() + "pipeline_" +
                             s.name + "_v" + std::to_string(version) +
                             ".fdb";
    if (version == storage::kFormatVersionV2) {
      testutil::V2StoreOptions options;
      options.segment_txns = 256;
      testutil::WriteV2Store(path, s.db, s.dict, s.taxonomy, options);
    } else {
      storage::StoreWriter::Options options;
      options.segment_txns = 256;
      ASSERT_TRUE(storage::WriteStoreFile(path, s.db, s.dict, s.taxonomy,
                                          options)
                      .ok());
    }
    auto reader = storage::StoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    for (int threads : {1, 4}) {
      config.num_threads = threads;
      auto run = FlipperMiner::Run(reader->db(), reader->taxonomy(),
                                   config);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(Fingerprint(*run), reference_fp)
          << "store v" << version << " threads=" << threads;
    }
  }
}

TEST(PipelineEquivalence, Groceries) { RunScenario(GroceriesScenario()); }

TEST(PipelineEquivalence, Census) { RunScenario(CensusScenario()); }

TEST(PipelineEquivalence, QuestWithScanCells) {
  RunScenario(QuestScanScenario());
}

// The sharded scan-cell must surface ResourceExhausted (not OOM or
// hang) when its distinct-combination count crosses the candidate
// cap, for any thread count.
TEST(PipelineEquivalence, ScanCellExhaustionIsDeterministic) {
  Scenario s = QuestScanScenario();
  // Above row 1's pair count (so the cartesian cells pass) but below
  // the scan-driven cells' distinct-combination counts.
  s.config.max_candidates_per_cell = 2'000;
  std::string reference_error;
  for (int threads : {1, 2, 4, 0}) {
    s.config.num_threads = threads;
    auto run = FlipperMiner::Run(s.db, s.taxonomy, s.config);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    if (reference_error.empty()) {
      reference_error = run.status().ToString();
      EXPECT_NE(reference_error.find("scan-driven"), std::string::npos)
          << reference_error;
    } else {
      EXPECT_EQ(run.status().ToString(), reference_error)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace flipper
