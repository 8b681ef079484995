// Mining statistics: per-cell candidate accounting plus run-level
// aggregates. The bench harness reports these as the paper's Figure-8
// runtime series, the Table-4 pattern counts and the Figure-9(b)
// candidate-memory comparison.

#ifndef FLIPPER_CORE_STATS_H_
#define FLIPPER_CORE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace flipper {

struct CellStats {
  int h = 0;
  int k = 0;
  uint64_t generated = 0;  // candidates produced by generation
  uint64_t counted = 0;    // candidates surviving pre-count filters
  uint64_t frequent = 0;
  uint64_t labeled = 0;    // frequent with a POS/NEG label
  uint64_t alive = 0;      // chain-alive after the flip check
  double seconds = 0.0;
};

struct MiningStats {
  std::vector<CellStats> cells;
  uint64_t total_generated = 0;
  uint64_t total_counted = 0;
  uint64_t db_scans = 0;
  /// Scans that counted into a dense per-item or per-combination array
  /// (already included in db_scans): the initial singleton scan and
  /// SupportCounter's dense-layout batches.
  uint64_t dense_scans = 0;
  /// Database scans performed by the scan-driven cell strategy alone
  /// (already included in db_scans; counted even when a scan bails
  /// mid-way with ResourceExhausted).
  uint64_t scan_cell_scans = 0;
  double total_seconds = 0.0;
  int64_t peak_candidate_bytes = 0;
  /// Column at which TPG terminated growth (0 = never fired).
  int tpg_stopped_at = 0;
  /// Items banned by SIBP across all levels.
  uint64_t sibp_banned_items = 0;
  /// Frequent itemsets that carried a positive / negative label across
  /// all cells (the Pos / Neg columns of Table 4).
  uint64_t num_positive = 0;
  uint64_t num_negative = 0;

  void AddCell(const CellStats& cell);

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_STATS_H_
