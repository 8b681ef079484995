#include "core/scan_cell.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "common/cancellation.h"
#include "common/trace.h"
#include "core/cell_planner.h"

namespace flipper {
namespace {

/// Transactions per scan shard below which the per-shard counter
/// tables and the merge pass cost more than the parallelism buys.
constexpr size_t kMinTxnsPerScanShard = 512;

}  // namespace

double ScanEnumerationCost(const LevelViews& views, int h, int k,
                           double live_fraction) {
  const std::vector<uint32_t>& hist = views.Level(h).width_hist;
  const double rate = std::clamp(live_fraction, 0.0, 1.0);
  double total = 0.0;
  for (size_t w = static_cast<size_t>(k); w < hist.size(); ++w) {
    if (hist[w] == 0) continue;
    // C(ew, k) with the expected filtered width ew = w * rate, capped.
    const double ew = static_cast<double>(w) * rate;
    if (ew < static_cast<double>(k)) continue;
    double combos = 1.0;
    for (int i = 0; i < k; ++i) {
      combos *= (ew - static_cast<double>(i)) /
                static_cast<double>(k - i);
      if (combos > 1e15) break;
    }
    total += combos * hist[w];
    if (total > 1e15) return total;
  }
  return total;
}

Status FillCellByScan(const LevelViews& views, const Taxonomy& taxonomy,
                      const MiningConfig& config, int h, int k,
                      const Cell& parent_cell, const Cell* prev_in_row,
                      const std::unordered_set<ItemId>& banned,
                      std::span<const ItemId> freq_items,
                      std::vector<Itemset>* candidates,
                      std::vector<uint32_t>* supports, CellStats* cs,
                      MiningStats* stats, ScanCellScratch* scratch,
                      ThreadPool* pool) {
  ScanCellScratch local;
  ScanCellScratch* s = scratch != nullptr ? scratch : &local;

  // Participating items: frequent at level h and not SIBP-banned.
  const LevelData& level = views.Level(h);
  s->ok.assign(level.item_support.size(), 0);
  for (ItemId item : freq_items) {
    if (banned.find(item) == banned.end()) s->ok[item] = 1;
  }
  const std::vector<char>& ok = s->ok;

  // Phase 1: count every k-subset of participating items that occurs,
  // sharded over transaction ranges with one private counter table per
  // shard. A shard whose own table exceeds the candidate cap stops
  // early and flags exhaustion: its local count already lower-bounds
  // the merged count, so the run is doomed either way. The shard
  // tables and item buffers come from the scratch, so a warm cell
  // allocates nothing per transaction (Reset() and clear() keep their
  // storage).
  const int num_shards =
      views.NumScanShards(h, kMinTxnsPerScanShard, pool);
  if (s->shard_tables.size() < static_cast<size_t>(num_shards)) {
    s->shard_tables.resize(static_cast<size_t>(num_shards));
  }
  if (s->shard_buf.size() < static_cast<size_t>(num_shards)) {
    s->shard_buf.resize(static_cast<size_t>(num_shards));
  }
  for (int i = 0; i < num_shards; ++i) {
    s->shard_tables[static_cast<size_t>(i)].Reset(k);
    auto& buf = s->shard_buf[static_cast<size_t>(i)];
    buf.clear();
    buf.reserve(level.db.max_width());
  }
  const CancelToken* cancel = config.cancel;
  std::atomic<bool> exhausted{false};
  views.ScanShards(h, num_shards, [&](int shard, size_t lo, size_t hi) {
    FLIPPER_TRACE_SPAN_HK("scan_shard", "task", h, k);
    std::vector<ItemId>& buf = s->shard_buf[static_cast<size_t>(shard)];
    ScanCounterTable& counts = s->shard_tables[static_cast<size_t>(shard)];
    Itemset combo_scratch;
    // Cancellation poll every 512 transactions, same early-out shape
    // as the `exhausted` flag; partial shard counts are fine because
    // the fired token fails the cell below before any merge is used.
    size_t until_cancel_check = 512;
    for (size_t t = lo; t < hi; ++t) {
      if (exhausted.load(std::memory_order_relaxed)) return;
      if (cancel != nullptr && --until_cancel_check == 0) {
        until_cancel_check = 512;
        if (cancel->Fired()) {
          exhausted.store(true, std::memory_order_relaxed);
          return;
        }
      }
      buf.clear();
      for (ItemId item : level.db.Get(static_cast<TxnId>(t))) {
        if (item < ok.size() && ok[item]) buf.push_back(item);
      }
      if (buf.size() < static_cast<size_t>(k)) continue;
      ForEachCombination(
          buf, k, &combo_scratch,
          [&](const Itemset& combo) { counts.Increment(combo); });
      if (counts.size() > config.max_candidates_per_cell) {
        exhausted.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }, pool);
  // The scan I/O happened whether or not it completed — account it
  // before any bail-out.
  ++stats->db_scans;
  ++stats->scan_cell_scans;

  // A fired token also trips `exhausted` (to stop the other shards),
  // so it must be classified first — cancellation, not overflow.
  if (cancel != nullptr && cancel->Fired()) {
    Status st = cancel->ToStatus();
    if (st.ok()) st = Status::Cancelled("cancelled: query abandoned");
    return st;
  }
  const Status overflow = Status::ResourceExhausted(
      "scan-driven cell Q(" + std::to_string(h) + "," +
      std::to_string(k) + ") exceeded the candidate limit");
  if (exhausted.load(std::memory_order_relaxed)) return overflow;

  // Deterministic shard-order merge of the private counters. The
  // merged table is re-checked against the cap per shard so it never
  // grows much past it; the per-shard tables themselves are each
  // bounded by the cap above (a tighter cap / num_shards bound would
  // flag cells the serial path accepts, since shards overlap). Shard
  // 0's table doubles as the merge target, so its storage survives
  // for reuse. (Counts are additive, so the merged totals are
  // shard-order independent; emission is sorted below either way.)
  FLIPPER_TRACE_SPAN_HK("scan_merge", "detail", h, k);
  ScanCounterTable& merged = s->shard_tables[0];
  for (int i = 1; i < num_shards; ++i) {
    const ScanCounterTable& table = s->shard_tables[static_cast<size_t>(i)];
    for (const ScanCounterTable::Entry& entry : table.entries()) {
      merged.Increment(table.KeyOf(entry).data(), entry.count);
    }
    if (merged.size() > config.max_candidates_per_cell) return overflow;
  }
  if (merged.size() > config.max_candidates_per_cell) return overflow;
  cs->generated = merged.size();
  std::vector<std::pair<Itemset, uint32_t>> entries;
  entries.reserve(merged.size());
  for (const ScanCounterTable::Entry& entry : merged.entries()) {
    entries.emplace_back(merged.ItemsetOf(entry), entry.count);
  }

  // Phase 2: keep combinations growable from an eligible parent that
  // pass the known-infrequent subset filter. (Combinations whose items
  // share a level-1 root generalize to fewer than k items and find no
  // parent record, so they drop out here.) Sorted emission keeps the
  // cell contents reproducible across thread counts and platforms.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  candidates->clear();
  supports->clear();
  for (const auto& [combo, sup] : entries) {
    const Itemset parent_itemset = combo.Map([&](ItemId item) {
      return taxonomy.AncestorAtLevel(item, h - 1);
    });
    const ItemsetRecord* parent_record = parent_cell.Find(parent_itemset);
    if (parent_record == nullptr ||
        !ParentEligible(config, *parent_record)) {
      continue;
    }
    if (prev_in_row != nullptr) {
      bool viable = true;
      for (int drop = 0; drop < combo.size() && viable; ++drop) {
        const ItemsetRecord* rec =
            prev_in_row->Find(combo.WithoutIndex(drop));
        if (rec != nullptr && !rec->frequent) viable = false;
      }
      if (!viable) continue;
    }
    candidates->push_back(combo);
    supports->push_back(sup);
  }
  return Status::OK();
}

}  // namespace flipper
