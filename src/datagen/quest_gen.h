// Reimplementation of the Srikant & Agrawal ("Quest") synthetic
// transaction generator used in the paper's §5.1 performance study.
// The original tool is proprietary; this follows the published
// description (VLDB'94/'95): a pool of weighted "potentially frequent"
// itemsets with inter-pattern correlation and per-pattern corruption
// drives Poisson-width transactions over the taxonomy's leaves.

#ifndef FLIPPER_DATAGEN_QUEST_GEN_H_
#define FLIPPER_DATAGEN_QUEST_GEN_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

struct QuestParams {
  /// |D| — number of transactions.
  uint32_t num_transactions = 100'000;
  /// |T| — average transaction width (Poisson-distributed).
  double avg_width = 5.0;
  /// |L| — size of the potentially-frequent itemset pool.
  uint32_t num_patterns = 500;
  /// |I| — average size of a potentially-frequent itemset.
  double avg_pattern_size = 2.5;
  /// Fraction of items a pattern inherits from its predecessor
  /// (exponentially distributed with this mean).
  double correlation = 0.5;
  /// Mean of the per-pattern corruption level (clipped N(mean, 0.1)).
  double corruption_mean = 0.5;
  /// Temporal skew: with `phases` >= 2 the transaction stream is split
  /// into that many consecutive phases and phase p draws only from the
  /// p-th slice of the pattern pool, so item populations drift across
  /// the file (a "skewed" store whose segments hold different items).
  /// 0 or 1 keeps the classic stationary generator — bit-identical to
  /// the pre-phases output for any seed.
  uint32_t phases = 0;
  uint64_t seed = 1;

  Status Validate() const;
};

/// Generates a transaction database over `taxonomy`'s leaves.
Result<TransactionDb> GenerateQuest(const QuestParams& params,
                                    const Taxonomy& taxonomy);

}  // namespace flipper

#endif  // FLIPPER_DATAGEN_QUEST_GEN_H_
