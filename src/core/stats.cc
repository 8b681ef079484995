#include "core/stats.h"

#include "common/string_util.h"

namespace flipper {

void MiningStats::AddCell(const CellStats& cell) {
  cells.push_back(cell);
  total_generated += cell.generated;
  total_counted += cell.counted;
  total_seconds += cell.seconds;
}

std::string MiningStats::ToString() const {
  std::string out;
  out += "cells computed:    " + FormatCount(static_cast<int64_t>(
                                     cells.size())) + "\n";
  out += "candidates gen:    " +
         FormatCount(static_cast<int64_t>(total_generated)) + "\n";
  out += "candidates cnt:    " +
         FormatCount(static_cast<int64_t>(total_counted)) + "\n";
  out += "db scans:          " +
         FormatCount(static_cast<int64_t>(db_scans)) + " (dense: " +
         FormatCount(static_cast<int64_t>(dense_scans)) + ", scan-cell: " +
         FormatCount(static_cast<int64_t>(scan_cell_scans)) + ")\n";
  out += "positive itemsets: " +
         FormatCount(static_cast<int64_t>(num_positive)) + "\n";
  out += "negative itemsets: " +
         FormatCount(static_cast<int64_t>(num_negative)) + "\n";
  out += "peak cand. memory: " + FormatBytes(peak_candidate_bytes) + "\n";
  out += "tpg stop column:   " +
         (tpg_stopped_at > 0 ? std::to_string(tpg_stopped_at)
                             : std::string("-")) +
         "\n";
  out += "sibp banned items: " +
         FormatCount(static_cast<int64_t>(sibp_banned_items)) + "\n";
  out += "total time:        " + FormatDouble(total_seconds, 3) + " s\n";
  return out;
}

}  // namespace flipper
