// Ablation A2 (ours): per-layer candidate accounting. For the default
// synthetic workload, reports how many candidates each pruning layer
// evaluates, how often TPG fires and how many items SIBP bans — the
// mechanism behind Figure 8's speedups.

#include <iostream>

#include "bench_util.h"

namespace flipper {
namespace bench {
namespace {

void Main() {
  Banner("bench_ablation_pruning",
         "ablation — candidate counts per pruning layer");
  const uint32_t n = DefaultN();
  SyntheticWorkload workload = MakeQuestWorkload(n, 5.0);
  std::cout << "workload: Quest N=" << FormatCount(n) << " W=5\n\n";

  TablePrinter table({"variant", "generated", "counted", "seconds",
                      "tpg stop col", "sibp bans", "flips"});
  CsvWriter csv({"variant", "generated", "counted", "seconds",
                 "tpg_stop", "sibp_bans", "patterns"});
  MiningConfig config = DefaultSyntheticConfig();
  for (PruningOptions pruning :
       {PruningOptions::Basic(), PruningOptions::FlippingOnly(),
        PruningOptions::FlippingTpg(), PruningOptions::Full()}) {
    config.pruning = pruning;
    auto result =
        FlipperMiner::Run(workload.db, workload.taxonomy, config);
    if (!result.ok()) {
      table.AddRow({pruning.ToString(), "error"});
      continue;
    }
    const MiningStats& stats = result->stats;
    table.AddRow(
        {pruning.ToString(),
         FormatCount(static_cast<int64_t>(stats.total_generated)),
         FormatCount(static_cast<int64_t>(stats.total_counted)),
         FormatDouble(stats.total_seconds, 3),
         stats.tpg_stopped_at > 0 ? std::to_string(stats.tpg_stopped_at)
                                  : "-",
         std::to_string(stats.sibp_banned_items),
         std::to_string(result->patterns.size())});
    csv.AddRow({pruning.ToString(),
                std::to_string(stats.total_generated),
                std::to_string(stats.total_counted),
                FormatDouble(stats.total_seconds, 4),
                std::to_string(stats.tpg_stopped_at),
                std::to_string(stats.sibp_banned_items),
                std::to_string(result->patterns.size())});
  }
  table.Print(std::cout);
  std::cout << "\nEach added layer may only shrink the candidate\n"
            << "workload while the flipping output stays identical\n"
            << "(verified by the differential test suite).\n";
  WriteCsv(csv, "ablation_pruning.csv");
}

}  // namespace
}  // namespace bench
}  // namespace flipper

int main() {
  flipper::bench::Main();
  return 0;
}
