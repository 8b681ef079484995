#include "core/naive_miner.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/candidate_gen.h"
#include "core/label.h"
#include "core/level_views.h"
#include "core/support_counting.h"
#include "measures/measure.h"

namespace flipper {
namespace {

/// What the oracle keeps of one frequent itemset.
struct Record {
  uint32_t support = 0;
  double corr = 0.0;
  Label label = Label::kNone;
};

/// One cell of the oracle's own table: the frequent k-itemsets of a
/// level. A hash map, independent of the miner's columnar Cell, so the
/// oracle never checks that layout against itself.
using FrequentCell = std::unordered_map<Itemset, Record, ItemsetHash>;

/// All cells of one level, indexed by k (cells[k - 2] holds the
/// k-itemsets).
using LevelCells = std::vector<FrequentCell>;

/// Tracked bytes per stored record (itemset + record + hash node
/// overhead estimate).
constexpr int64_t kBytesPerRecord =
    static_cast<int64_t>(sizeof(Itemset) + sizeof(Record) + 32);

}  // namespace

Result<MiningResult> NaiveMiner::Run(const TransactionDb& db,
                                     const Taxonomy& taxonomy,
                                     const MiningConfig& config) {
  FLIPPER_RETURN_IF_ERROR(config.Validate());
  ThreadPool pool(config.num_threads);
  FLIPPER_ASSIGN_OR_RETURN(LevelViews views,
                           LevelViews::Build(db, taxonomy, &pool));
  // The oracle counts through the trie layout alone, so every
  // comparison against it also checks the miners' dense layout.
  CountBatchScratch scratch;
  uint64_t db_scans = 0;

  MiningResult result;
  MemoryTracker tracker;
  WallTimer total_timer;
  const int height = taxonomy.height();
  const uint32_t n = views.num_transactions();

  // Phase 1: full Apriori per level. Every frequent itemset of every
  // level stays resident until post-processing — that is the point of
  // this baseline.
  std::vector<LevelCells> levels(static_cast<size_t>(height) + 1);
  for (int h = 1; h <= height; ++h) {
    const uint32_t min_count = config.MinCount(h, n);

    // Frequent single items, sorted by id.
    std::vector<ItemId> freq_items;
    for (ItemId item : taxonomy.NodesAtLevel(h)) {
      if (views.ItemSupport(h, item) >= min_count) {
        freq_items.push_back(item);
      }
    }

    LevelCells& cells = levels[static_cast<size_t>(h)];
    const int k_cap =
        config.max_itemset_size > 0
            ? std::min(config.max_itemset_size, kMaxItemsetSize)
            : kMaxItemsetSize;
    for (int k = 2; k <= k_cap; ++k) {
      WallTimer cell_timer;
      std::vector<Itemset> candidates;
      bool truncated = false;
      if (k == 2) {
        candidates = GeneratePairs(freq_items);
        truncated = candidates.size() > config.max_candidates_per_cell;
      } else {
        const FrequentCell& prev = cells[static_cast<size_t>(k - 3)];
        std::vector<Itemset> frequent;
        for (const auto& [itemset, record] : prev) frequent.push_back(itemset);
        std::sort(frequent.begin(), frequent.end());
        candidates = AprioriJoin(
            frequent,
            [&](const Itemset& subset) { return prev.count(subset) != 0; },
            config.max_candidates_per_cell, &truncated);
      }
      if (truncated) {
        return Status::ResourceExhausted(
            "naive Apriori exceeded " +
            std::to_string(config.max_candidates_per_cell) +
            " candidates at level " + std::to_string(h) +
            ", k=" + std::to_string(k));
      }
      if (candidates.empty()) break;

      std::vector<uint32_t> supports(candidates.size());
      FLIPPER_RETURN_IF_ERROR(CountBatchWithTrie(
          views.Level(h).db, candidates, &pool, supports, &scratch));
      ++db_scans;

      FrequentCell cell;
      CellStats cs;
      cs.h = h;
      cs.k = k;
      cs.generated = candidates.size();
      cs.counted = candidates.size();
      std::vector<uint32_t> item_sups;
      for (size_t i = 0; i < candidates.size(); ++i) {
        const uint32_t sup = supports[i];
        const bool frequent = sup >= min_count;
        if (!frequent) continue;  // BASIC keeps frequent itemsets only
        const Itemset& itemset = candidates[i];
        item_sups.clear();
        for (ItemId item : itemset) {
          item_sups.push_back(views.ItemSupport(h, item));
        }
        Record record;
        record.support = sup;
        record.corr = Correlation(config.measure, sup, item_sups);
        record.label =
            LabelOf(record.corr, config.gamma, config.epsilon, true);
        cell.emplace(itemset, record);
        tracker.Add(kBytesPerRecord);
        ++cs.frequent;
        if (record.label != Label::kNone) ++cs.labeled;
        if (record.label == Label::kPositive) ++result.stats.num_positive;
        if (record.label == Label::kNegative) ++result.stats.num_negative;
      }
      cs.seconds = cell_timer.ElapsedSeconds();
      result.stats.AddCell(cs);
      const bool no_frequent = cell.empty();
      cells.push_back(std::move(cell));
      if (no_frequent) break;  // anti-monotonicity: no larger itemsets
    }
  }

  // Phase 2: post-hoc flipping extraction. A leaf (level-H) frequent
  // k-itemset is a flipping pattern iff its items descend from distinct
  // level-1 roots and every per-level generalization is frequent,
  // labeled, and the labels alternate (Definition 2).
  if (height >= 2) {
    const LevelCells& leaf_cells = levels[static_cast<size_t>(height)];
    for (size_t col = 0; col < leaf_cells.size(); ++col) {
      const int k = static_cast<int>(col) + 2;
      for (const auto& [leaf, leaf_record] : leaf_cells[col]) {
        // Distinct level-1 roots.
        Itemset roots = leaf.Map(
            [&](ItemId item) { return taxonomy.RootOf(item); });
        if (roots.size() != k) continue;

        FlippingPattern pattern;
        pattern.leaf_itemset = leaf;
        const bool flips = [&] {
          Label prev_label = Label::kNone;
          for (int h = 1; h <= height; ++h) {
            const Itemset gen = leaf.Map([&](ItemId item) {
              return taxonomy.AncestorAtLevel(item, h);
            });
            const LevelCells& cells = levels[static_cast<size_t>(h)];
            if (col >= cells.size()) return false;
            auto it = cells[col].find(gen);
            if (it == cells[col].end()) return false;  // infrequent
            const Record& rec = it->second;
            if (rec.label == Label::kNone) return false;
            if (h > 1 && !Flips(prev_label, rec.label)) return false;
            prev_label = rec.label;
            pattern.chain.push_back(
                {h, gen, rec.support, rec.corr, rec.label});
          }
          return true;
        }();
        if (flips) result.patterns.push_back(std::move(pattern));
      }
    }
  }
  SortPatterns(&result.patterns);

  result.stats.db_scans = db_scans;
  result.stats.peak_candidate_bytes = tracker.peak_bytes();
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace flipper
