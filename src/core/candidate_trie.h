// CandidateTrie: the Apriori "hash-tree" role. Stores all candidate
// k-itemsets of one cell as a prefix trie over sorted item ids, so that
// a transaction can increment exactly the candidates it contains
// without enumerating all of its k-subsets blindly. It is the support
// counter's sparse layout: batches whose distinct items admit few
// enough k-combinations count in a dense combination array instead
// (ChooseCountLayout in support_counting.h).
//
// The trie is a single arena with SoA columns per node (items[] /
// child_begin[] / child_end[] / leaf_index[]), walked iteratively with
// an explicit frame stack. The txn∩children merge-walk runs over the
// dense items[] stream with a packed lower-bound probe — selected at
// *runtime* from one binary: AVX2 when cpuid reports it, SSE2 on
// x86-64, a 64-bit mask + std::countr_zero word kernel otherwise — and
// switches to a galloping probe when the sibling list is long relative
// to the remaining transaction suffix.

#ifndef FLIPPER_CORE_CANDIDATE_TRIE_H_
#define FLIPPER_CORE_CANDIDATE_TRIE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"
#include "data/types.h"

namespace flipper {

/// Lower-bound probe kernels over a sorted ItemId stream: first index
/// in [lo, hi) whose item is >= target, hi when none. Exposed for the
/// probe-kernel micro-bench and the kernel-agreement unit tests; the
/// trie walk dispatches between them internally.
namespace trie_probe {

/// Signature shared by every lower-bound kernel.
using ProbeFn = uint32_t (*)(const ItemId* items, uint32_t lo,
                             uint32_t hi, ItemId target);

/// Baseline: one compare per element.
uint32_t LowerBoundScalar(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target);

/// Portable packed probe: 8-wide compare masks folded into one 64-bit
/// word, resolved with std::countr_zero. Always built; also the tail
/// kernel of the vectorized variants.
uint32_t LowerBoundPackedPortable(const ItemId* items, uint32_t lo,
                                  uint32_t hi, ItemId target);

/// Runtime-dispatched packed probe. One binary carries every kernel;
/// the first call resolves the best one the host CPU supports (AVX2
/// via cpuid, else SSE2 on x86-64, else the portable word kernel),
/// honouring the FLIPPER_FORCE_PROBE_KERNEL override — an unknown or
/// unsupported forced name aborts with an explicit message rather
/// than silently falling back. Hot loops should hoist
/// ResolvedPackedKernel() once instead of paying the dispatch load
/// per probe.
uint32_t LowerBoundPacked(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target);

/// The function pointer LowerBoundPacked dispatches through,
/// resolving it first if needed.
ProbeFn ResolvedPackedKernel();

/// Galloping (exponential + binary) probe for long streams.
uint32_t LowerBoundGallop(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target);

/// Name of the kernel LowerBoundPacked currently resolves to ("avx2",
/// "sse2", "portable" or "scalar") — reported by the bench JSON.
const char* PackedKernelName();

/// Kernel names this host can run, dispatch-preferred first.
std::vector<const char*> AvailableKernelNames();

/// The kernel registered under `name`, independent of the dispatch
/// state; nullptr when the name is unknown or the host CPU cannot run
/// it. For the kernel-agreement tests.
ProbeFn KernelByName(std::string_view name);

/// Pins LowerBoundPacked to the named kernel (tests/benches — the env
/// override is the production path). InvalidArgument on unknown
/// names, FailedPrecondition when the host CPU lacks the kernel.
Status ForcePackedKernel(std::string_view name);

/// Restores cpuid auto-dispatch; FLIPPER_FORCE_PROBE_KERNEL is
/// re-read at the next resolution.
void ResetPackedKernel();

}  // namespace trie_probe

class CandidateTrie {
 public:
  /// An empty trie (no candidates); fill with Build().
  CandidateTrie() = default;

  /// Builds the trie over candidates (all of equal size k >= 1).
  /// The candidate order defines the counter indexing.
  explicit CandidateTrie(std::span<const Itemset> candidates) {
    Build(candidates);
  }

  /// Rebuilds over a new candidate batch, reusing the arena and
  /// counter allocations of previous builds (the row-level trie-reuse
  /// seam: one trie object serves every cell of a row).
  void Build(std::span<const Itemset> candidates);

  int k() const { return k_; }
  size_t num_candidates() const { return counts_.size(); }

  /// Total trie nodes across all layers.
  size_t num_nodes() const;

  /// Feeds one (sorted, deduped) transaction through the trie,
  /// incrementing every contained candidate.
  void CountTransaction(std::span<const ItemId> txn);

  /// External-counter variant: increments into `counts` (size
  /// num_candidates(), same input-order indexing) instead of the
  /// built-in counters. The trie itself is untouched, so concurrent
  /// callers with private buffers can share one trie.
  void CountTransaction(std::span<const ItemId> txn,
                        std::span<uint32_t> counts) const;

  /// Counter of candidate `i` (input order).
  uint32_t CountOf(size_t i) const { return counts_[i]; }

  std::span<const uint32_t> counts() const { return counts_; }

  /// Heap bytes of the SoA columns plus counters. Exact for a freshly
  /// constructed trie: the builder sizes every column ahead of time, so
  /// capacity == size.
  int64_t MemoryBytes() const;

 private:
  void Walk(std::span<const ItemId> txn, uint32_t* counts) const;

  int k_ = 0;

  // One arena in layer-major order. Node ids are global; layer d
  // occupies [layer_begin_[d], layer_begin_[d + 1]).
  // Internal nodes (depth < k-1, global id < layer_begin_[k_-1]) carry
  // child ranges of global ids in the next layer; leaf-layer nodes
  // carry leaf_index_[id - layer_begin_[k_-1]] into counts_.
  std::vector<ItemId> items_;
  std::vector<uint32_t> child_begin_;
  std::vector<uint32_t> child_end_;
  std::vector<uint32_t> leaf_index_;
  std::vector<uint32_t> layer_begin_;

  std::vector<uint32_t> counts_;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_CANDIDATE_TRIE_H_
