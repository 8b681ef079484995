// Ablation A4 (ours): cartesian vertical expansion vs the scan-driven
// cell strategy on low-support workloads. At very low theta the
// cartesian children product materializes combinations that never
// co-occur; the scan-driven strategy enumerates only the k-subsets the
// data contains. Patterns are identical either way (tested).

#include <iostream>

#include "bench_util.h"

namespace flipper {
namespace bench {
namespace {

void Main() {
  Banner("bench_ablation_scan",
         "ablation — cartesian vs scan-driven cell strategy");
  const uint32_t n = static_cast<uint32_t>(DefaultN() * 0.5);
  SyntheticWorkload workload = MakeQuestWorkload(n, 5.0);
  std::cout << "workload: Quest N=" << FormatCount(n)
            << " W=5, FLIPPING-only pruning (worst case for "
               "cartesian growth)\n\n";

  // Table-3 profiles from mild to extreme.
  struct Profile {
    const char* name;
    std::vector<double> thresholds;
  };
  const Profile profiles[] = {
      {"thr3", {0.01, 0.001, 0.0005, 0.0001}},
      {"thr7", {0.001, 0.0005, 0.0001, 0.00005}},
      {"thr10", {0.001, 0.0001, 0.00006, 0.00003}},
  };

  TablePrinter table({"profile", "cartesian (s)", "scan-driven (s)",
                      "cartesian cand", "scan cand", "flips"});
  CsvWriter csv({"profile", "strategy", "seconds", "candidates",
                 "patterns"});
  for (const Profile& profile : profiles) {
    MiningConfig config = DefaultSyntheticConfig();
    config.min_support = profile.thresholds;
    config.pruning = PruningOptions::FlippingOnly();

    std::vector<std::string> row = {profile.name};
    std::vector<std::string> cand_cells;
    uint64_t flips = 0;
    for (bool scan : {false, true}) {
      config.enable_scan_cells = scan;
      auto result =
          FlipperMiner::Run(workload.db, workload.taxonomy, config);
      const char* strategy = scan ? "scan" : "cartesian";
      if (!result.ok()) {
        row.push_back("exhausted");
        cand_cells.push_back("-");
        csv.AddRow({profile.name, strategy, "-", "-", "-"});
        continue;
      }
      row.push_back(FormatDouble(result->stats.total_seconds, 3));
      cand_cells.push_back(
          FormatCount(static_cast<int64_t>(result->stats.total_counted)));
      flips = result->patterns.size();
      csv.AddRow({profile.name, strategy,
                  FormatDouble(result->stats.total_seconds, 4),
                  std::to_string(result->stats.total_counted),
                  std::to_string(result->patterns.size())});
    }
    row.insert(row.end(), cand_cells.begin(), cand_cells.end());
    row.push_back(std::to_string(flips));
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\nThe lower the support thresholds, the more absent\n"
            << "combinations the cartesian strategy wastes work on;\n"
            << "the scan-driven strategy's cost tracks the data.\n";
  WriteCsv(csv, "ablation_scan.csv");
}

}  // namespace
}  // namespace bench
}  // namespace flipper

int main() {
  flipper::bench::Main();
  return 0;
}
