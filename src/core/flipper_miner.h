// FlipperMiner: the paper's Flipper algorithm (§4, Algorithm 1).
//
// This is the public entry point; the implementation is the
// cell-execution pipeline under src/core:
//
//   cell_planner.h    — candidate generation + strategy selection
//                       (pairs / apriori-join / vertical-expand /
//                       scan-driven);
//   support_counting.h — the sharded counting engine (candidate
//                       batches, and the scan-driven cell's occurring
//                       combinations in per-shard hash tables);
//   cell_evaluator.h  — correlation, labels, chain-alive flags,
//                       parent links, SIBP bookkeeping;
//   cell_pipeline.h   — the driver walking the Q(h,k) table, one
//                       cell at a time: plan, count, evaluate.
//
// Processing order follows the paper exactly: the two ceiling rows
// zigzag Q(1,2) -> Q(2,2) -> Q(1,3) -> ... so the TPG termination test
// (Theorem 3) always sees two vertically consecutive cells, then rows
// 3..H run one row at a time, left to right. Pruning layers (all
// individually switchable through MiningConfig::pruning):
//
//   support  — infrequent itemsets are neither extended nor kept;
//   flipping — rows >= 2 grow only from chain-alive parents, and
//              chain-dead itemsets are evicted once a row completes;
//   TPG      — if every itemset of two vertically consecutive cells is
//              non-positive, all columns >= k die globally (Theorem 3);
//   SIBP     — per level, items whose every counted k-itemset stays
//              below gamma (walking the support-ascending item list)
//              and whose parent item qualified one level up are banned
//              from wider itemsets (Theorem 2 + Corollary 2).
//
// Memory: two rows are resident in full at any time; a retired row
// keeps only its chain-alive rows, which the leaf row's parent links
// walk to build each pattern's chain. A MemoryTracker records the
// table's peak column bytes (Figure 9(b)). Mining output is
// bit-identical for any thread count.

#ifndef FLIPPER_CORE_FLIPPER_MINER_H_
#define FLIPPER_CORE_FLIPPER_MINER_H_

#include "common/status.h"
#include "core/config.h"
#include "core/level_views.h"
#include "core/mining_result.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

class FlipperMiner {
 public:
  /// Mines all flipping patterns of `db` under `taxonomy` with the
  /// configured thresholds, measure and pruning stack.
  static Result<MiningResult> Run(const TransactionDb& db,
                                  const Taxonomy& taxonomy,
                                  const MiningConfig& config);

  /// Re-entrant variant over pre-built level views of `db` (see
  /// CellPipeline::Execute): the views are only read, so concurrent
  /// runs — each with its own config, on one shared pool
  /// (MiningConfig::pool) or pools of their own — may borrow the same
  /// instance. Results are bit-identical to the plain Run.
  static Result<MiningResult> Run(const TransactionDb& db,
                                  const Taxonomy& taxonomy,
                                  const MiningConfig& config,
                                  const LevelViews* shared_views);
};

}  // namespace flipper

#endif  // FLIPPER_CORE_FLIPPER_MINER_H_
