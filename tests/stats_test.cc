// MiningStats: AddCell aggregation of every counter, ToString label
// completeness (the --stats surface the CLI prints), and the
// flipper_cli `mine --stats` end-to-end output.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/stats.h"
#include "data/db_io.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

TEST(MiningStats, AddCellAggregatesTotals) {
  MiningStats stats;
  CellStats a;
  a.h = 1;
  a.k = 2;
  a.generated = 100;
  a.counted = 80;
  a.frequent = 40;
  a.labeled = 10;
  a.alive = 5;
  a.seconds = 0.25;
  CellStats b;
  b.h = 2;
  b.k = 2;
  b.generated = 50;
  b.counted = 30;
  b.seconds = 0.75;
  stats.AddCell(a);
  stats.AddCell(b);

  ASSERT_EQ(stats.cells.size(), 2u);
  EXPECT_EQ(stats.cells[0].h, 1);
  EXPECT_EQ(stats.cells[1].k, 2);
  EXPECT_EQ(stats.total_generated, 150u);
  EXPECT_EQ(stats.total_counted, 110u);
  EXPECT_DOUBLE_EQ(stats.total_seconds, 1.0);
}

TEST(MiningStats, ToStringCoversEveryCounter) {
  MiningStats stats;
  CellStats cell;
  cell.generated = 1234;
  cell.counted = 987;
  cell.seconds = 1.5;
  stats.AddCell(cell);
  stats.db_scans = 42;
  stats.dense_scans = 30;
  stats.scan_cell_scans = 7;
  stats.num_positive = 12345;
  stats.num_negative = 22;
  stats.peak_candidate_bytes = 4096;
  stats.tpg_stopped_at = 3;
  stats.sibp_banned_items = 5;

  const std::string s = stats.ToString();
  // Every counter the observability layer exports must be visible in
  // the human-readable summary too (satellite of the same contract).
  for (const char* label :
       {"cells computed:", "candidates gen:", "candidates cnt:",
        "db scans:", "dense:", "scan-cell:", "positive itemsets:",
        "negative itemsets:", "peak cand. memory:",
        "tpg stop column:", "sibp banned items:", "total time:"}) {
    EXPECT_NE(s.find(label), std::string::npos)
        << "missing label '" << label << "' in:\n"
        << s;
  }
  // Values land next to their labels.
  EXPECT_NE(s.find("1,234"), std::string::npos) << s;  // generated
  EXPECT_NE(s.find("12,345"), std::string::npos) << s;  // positive
  EXPECT_NE(s.find("42 (dense: 30, scan-cell: 7)"), std::string::npos)
      << s;
}

TEST(MiningStats, TpgColumnPrintsDashWhenNeverFired) {
  MiningStats stats;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("tpg stop column:   -"), std::string::npos) << s;
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

TEST(MiningStats, CliMineStatsPrintsTheFullSummary) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const std::string basket = ::testing::TempDir() + "stats_cli.basket";
  const std::string taxonomy =
      ::testing::TempDir() + "stats_cli.taxonomy";
  ASSERT_TRUE(WriteTaxonomyFile(data.taxonomy, data.dict, taxonomy).ok());
  ASSERT_TRUE(WriteBasketFile(data.db, data.dict, basket).ok());

  std::string out;
  std::string err;
  ASSERT_EQ(RunCli({"mine", basket, taxonomy, "--gamma=0.6",
                    "--epsilon=0.35", "--minsup=0.1,0.1,0.1",
                    "--format=csv", "--stats"},
                   &out, &err),
            0)
      << err;
  // The one flipping pattern of the paper's toy example still mines.
  EXPECT_NE(out.find("a11|b11"), std::string::npos) << out;
  // --stats prints the complete summary to stderr.
  for (const char* label :
       {"cells computed:", "candidates gen:", "candidates cnt:",
        "db scans:", "dense:", "scan-cell:", "positive itemsets:",
        "negative itemsets:", "peak cand. memory:",
        "tpg stop column:", "sibp banned items:", "total time:"}) {
    EXPECT_NE(err.find(label), std::string::npos)
        << "missing label '" << label << "' in stderr:\n"
        << err;
  }
}

}  // namespace
}  // namespace flipper
