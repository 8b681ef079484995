// Scan-driven cell stage: candidate discovery for explosive cells by
// enumerating the k-subsets of each (filtered) generalized transaction
// instead of materializing the cartesian children product, so
// combinations that never co-occur are skipped. Sound because
// MinCount() is always >= 1: a zero-support itemset can never be
// frequent.
//
// The counting scan is sharded over contiguous transaction ranges via
// LevelViews::ScanShards — each shard fills a private counter table
// (core/scan_counter.h), and the shard tables are merged
// deterministically in shard order.
// Candidates are emitted in sorted itemset order, so cell contents are
// reproducible across thread counts and platforms.

#ifndef FLIPPER_CORE_SCAN_CELL_H_
#define FLIPPER_CORE_SCAN_CELL_H_

#include <array>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/cell.h"
#include "core/config.h"
#include "core/level_views.h"
#include "core/scan_counter.h"
#include "core/stats.h"
#include "data/itemset.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

/// Expected number of k-subset probes of a level-h database scan,
/// from the level's transaction-width histogram. `live_fraction` is
/// the expected rate at which the per-transaction item filter keeps
/// an item (participating items / level vocabulary): the enumeration
/// runs over filtered transactions, so widths scale by it before the
/// C(w, k) estimate. 1.0 reproduces the unfiltered upper bound. The
/// planner compares this against the cartesian children product to
/// pick the strategy.
double ScanEnumerationCost(const LevelViews& views, int h, int k,
                           double live_fraction = 1.0);

/// Reusable state of the scan-driven cell: per-shard counter tables
/// and item buffers, plus the participating-item flags. The pipeline
/// keeps one instance alive across a run's scan cells, so a warm cell
/// re-counts without reallocating — the tables' Reset() keeps their
/// slot/entry/key storage.
struct ScanCellScratch {
  std::vector<ScanCounterTable> shard_tables;
  std::vector<std::vector<ItemId>> shard_buf;
  std::vector<char> ok;
};

/// Calls `fn(itemset)` for every k-combination of `items` (sorted
/// ascending, duplicate-free), in lexicographic order. Iterative —
/// an explicit index stack plus the caller's single scratch itemset,
/// pushed/popped in place — so probing a wide transaction performs no
/// allocation and no per-level itemset copies. `scratch` is cleared
/// on entry and left empty on return.
template <typename Fn>
void ForEachCombination(std::span<const ItemId> items, int k,
                        Itemset* scratch, const Fn& fn) {
  const size_t n = items.size();
  scratch->Clear();
  if (k <= 0 || n < static_cast<size_t>(k)) return;
  // idx[d] = index into `items` chosen at depth d; scratch holds the
  // items of depths [0, depth) at the top of the loop.
  std::array<size_t, kMaxItemsetSize> idx;
  int depth = 0;
  idx[0] = 0;
  while (true) {
    const size_t tail = static_cast<size_t>(k - depth);
    if (idx[static_cast<size_t>(depth)] + tail > n) {
      // No room for the remaining positions — backtrack.
      if (depth == 0) break;
      --depth;
      scratch->PopBack();
      ++idx[static_cast<size_t>(depth)];
      continue;
    }
    scratch->PushBack(items[idx[static_cast<size_t>(depth)]]);
    if (depth + 1 == k) {
      fn(*scratch);
      scratch->PopBack();
      ++idx[static_cast<size_t>(depth)];
    } else {
      idx[static_cast<size_t>(depth + 1)] =
          idx[static_cast<size_t>(depth)] + 1;
      ++depth;
    }
  }
}

/// Fills cell Q(h,k) by scanning level h's view: counts every
/// occurring k-subset of the participating items (frequent at level h,
/// not SIBP-banned), then keeps combinations growable from an eligible
/// parent in `parent_cell` that pass the known-infrequent subset
/// filter against `prev_in_row` (may be null). Emits `candidates`
/// (sorted) with their exact `supports`; sets cs->generated and
/// increments stats->db_scans / stats->scan_cell_scans — even when the
/// scan bails mid-way with ResourceExhausted, since the I/O happened
/// either way. `scratch` (may be null for a one-shot call)
/// carries the reusable shard buffers across cells. The scan is
/// sharded over `pool` (null runs it inline); the views are only
/// read, so concurrent queries may share them, each with its own pool.
Status FillCellByScan(const LevelViews& views, const Taxonomy& taxonomy,
                      const MiningConfig& config, int h, int k,
                      const Cell& parent_cell, const Cell* prev_in_row,
                      const std::unordered_set<ItemId>& banned,
                      std::span<const ItemId> freq_items,
                      std::vector<Itemset>* candidates,
                      std::vector<uint32_t>* supports, CellStats* cs,
                      MiningStats* stats,
                      ScanCellScratch* scratch = nullptr,
                      ThreadPool* pool = nullptr);

}  // namespace flipper

#endif  // FLIPPER_CORE_SCAN_CELL_H_
