#include "core/config.h"

#include <cmath>

namespace flipper {

std::string PruningOptions::ToString() const {
  if (!flipping && !tpg && !sibp) return "support-only";
  std::string out = "flipping";
  if (tpg) out += "+tpg";
  if (sibp) out += "+sibp";
  return out;
}

Status MiningConfig::Validate() const {
  if (!(gamma > epsilon)) {
    return Status::InvalidArgument(
        "gamma must be strictly greater than epsilon (gamma=" +
        std::to_string(gamma) + ", epsilon=" + std::to_string(epsilon) +
        ")");
  }
  if (gamma <= 0.0 || gamma > 1.0) {
    return Status::InvalidArgument("gamma must be in (0, 1]");
  }
  if (epsilon < 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in [0, 1)");
  }
  if (min_support.empty()) {
    return Status::InvalidArgument(
        "at least one per-level minimum support is required");
  }
  for (size_t i = 0; i < min_support.size(); ++i) {
    if (min_support[i] < 0.0 || min_support[i] > 1.0) {
      return Status::InvalidArgument(
          "min_support[" + std::to_string(i) + "] outside [0, 1]");
    }
    if (i > 0 && min_support[i] > min_support[i - 1]) {
      return Status::InvalidArgument(
          "per-level minimum supports must be non-increasing "
          "(theta_" + std::to_string(i) + " < theta_" +
          std::to_string(i + 1) + ")");
    }
  }
  if (max_itemset_size < 0) {
    return Status::InvalidArgument("max_itemset_size must be >= 0");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = all hardware threads)");
  }
  return Status::OK();
}

uint32_t MiningConfig::MinCount(int level, uint32_t num_txns) const {
  const size_t idx =
      std::min(static_cast<size_t>(level - 1), min_support.size() - 1);
  const double fraction = min_support[idx];
  const double count = std::ceil(fraction * static_cast<double>(num_txns));
  return count < 1.0 ? 1u : static_cast<uint32_t>(count);
}

}  // namespace flipper
