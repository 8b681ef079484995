// Shared output type of the real-dataset simulators (the paper's §5.2
// datasets, substituted by synthetic generators).

#ifndef FLIPPER_DATAGEN_SIM_DATASET_H_
#define FLIPPER_DATAGEN_SIM_DATASET_H_

#include <string>
#include <vector>

#include "core/config.h"
#include "data/item_dictionary.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

/// A flip structure a simulator planted on purpose; tests assert the
/// miners recover these.
struct PlantedFlip {
  /// Leaf item names of the pattern.
  std::vector<std::string> leaf_names;
  /// Expected label of level 1 ("POS"/"NEG"); deeper levels alternate.
  std::string level1_label;
  std::string description;
};

struct SimulatedDataset {
  std::string name;
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
  /// The thresholds the paper's Table 4 uses for this dataset.
  MiningConfig paper_config;
  std::vector<PlantedFlip> planted;
};

}  // namespace flipper

#endif  // FLIPPER_DATAGEN_SIM_DATASET_H_
