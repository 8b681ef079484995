#include "core/candidate_trie.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <numeric>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FLIPPER_TRIE_X86 1
#endif

#include "common/env.h"
#include "common/logging.h"

namespace flipper {
namespace trie_probe {

uint32_t LowerBoundScalar(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target) {
  while (lo < hi && items[lo] < target) ++lo;
  return lo;
}

uint32_t LowerBoundPackedPortable(const ItemId* items, uint32_t lo,
                                  uint32_t hi, ItemId target) {
  // Eight branchless compares folded into one 64-bit mask word; the
  // first set bit names the first item >= target.
  while (lo + 8 <= hi) {
    uint64_t ge = 0;
    for (uint32_t j = 0; j < 8; ++j) {
      ge |= static_cast<uint64_t>(items[lo + j] >= target) << j;
    }
    if (ge != 0) return lo + static_cast<uint32_t>(std::countr_zero(ge));
    lo += 8;
  }
  return LowerBoundScalar(items, lo, hi, target);
}

namespace {

#if defined(FLIPPER_TRIE_X86)

uint32_t LowerBoundPackedSse2(const ItemId* items, uint32_t lo,
                              uint32_t hi, ItemId target) {
  // ItemIds are unsigned; bias both sides by 2^31 so the signed
  // compare instruction orders them correctly.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i t =
      _mm_xor_si128(_mm_set1_epi32(static_cast<int>(target)), bias);
  while (lo + 4 <= hi) {
    const __m128i v = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(items + lo)),
        bias);
    // lanes with item < target.
    const __m128i lt = _mm_cmpgt_epi32(t, v);
    const auto mask =
        static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(lt)));
    if (mask != 0xfu) {
      return lo + static_cast<uint32_t>(std::countr_one(mask));
    }
    lo += 4;
  }
  return LowerBoundScalar(items, lo, hi, target);
}

// Compiled with per-function AVX2 codegen so the containing binary
// stays runnable on any x86-64 host; only the dispatcher may call it,
// and only after cpuid confirms AVX2.
__attribute__((target("avx2"))) uint32_t LowerBoundPackedAvx2(
    const ItemId* items, uint32_t lo, uint32_t hi, ItemId target) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i t = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int>(target)), bias);
  while (lo + 8 <= hi) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + lo)),
        bias);
    const __m256i lt = _mm256_cmpgt_epi32(t, v);
    const auto mask = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(lt)));
    if (mask != 0xffu) {
      return lo + static_cast<uint32_t>(std::countr_one(mask));
    }
    lo += 8;
  }
  return LowerBoundScalar(items, lo, hi, target);
}

bool HostHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#endif  // FLIPPER_TRIE_X86

bool AlwaysAvailable() { return true; }

struct KernelEntry {
  const char* name;
  ProbeFn fn;
  bool (*available)();
};

// Dispatch preference order: auto-resolution picks the first entry
// whose availability check passes. "scalar" is never auto-picked — it
// exists so tests/benches can force the baseline.
constexpr KernelEntry kKernels[] = {
#if defined(FLIPPER_TRIE_X86)
    {"avx2", &LowerBoundPackedAvx2, &HostHasAvx2},
    {"sse2", &LowerBoundPackedSse2, &AlwaysAvailable},
#endif
    {"portable", &LowerBoundPackedPortable, &AlwaysAvailable},
    {"scalar", &LowerBoundScalar, &AlwaysAvailable},
};

const KernelEntry* FindKernel(std::string_view name) {
  for (const KernelEntry& kernel : kKernels) {
    if (name == kernel.name) return &kernel;
  }
  return nullptr;
}

std::string KnownKernelNames() {
  std::string out;
  for (const KernelEntry& kernel : kKernels) {
    if (!out.empty()) out += ", ";
    out += kernel.name;
  }
  return out;
}

// The resolved dispatch target; nullptr until the first probe (or
// after ResetPackedKernel). Concurrent first probes race benignly:
// both resolve to the same entry.
std::atomic<const KernelEntry*> g_packed_kernel{nullptr};

const KernelEntry* ResolvePackedKernel() {
  const std::string forced = ForcedProbeKernel();
  if (!forced.empty()) {
    const KernelEntry* kernel = FindKernel(forced);
    FLIPPER_CHECK(kernel != nullptr)
        << "FLIPPER_FORCE_PROBE_KERNEL names unknown probe kernel '"
        << forced << "' (known kernels: " << KnownKernelNames() << ")";
    FLIPPER_CHECK(kernel->available())
        << "FLIPPER_FORCE_PROBE_KERNEL='" << forced
        << "' is not supported by this CPU";
    return kernel;
  }
  for (const KernelEntry& kernel : kKernels) {
    if (kernel.available()) return &kernel;
  }
  FLIPPER_CHECK(false) << "no probe kernel available";
  return nullptr;
}

const KernelEntry* DispatchedKernel() {
  const KernelEntry* kernel =
      g_packed_kernel.load(std::memory_order_acquire);
  if (kernel == nullptr) {
    kernel = ResolvePackedKernel();
    g_packed_kernel.store(kernel, std::memory_order_release);
  }
  return kernel;
}

}  // namespace

uint32_t LowerBoundPacked(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target) {
  return DispatchedKernel()->fn(items, lo, hi, target);
}

ProbeFn ResolvedPackedKernel() { return DispatchedKernel()->fn; }

const char* PackedKernelName() { return DispatchedKernel()->name; }

std::vector<const char*> AvailableKernelNames() {
  std::vector<const char*> names;
  for (const KernelEntry& kernel : kKernels) {
    if (kernel.available()) names.push_back(kernel.name);
  }
  return names;
}

ProbeFn KernelByName(std::string_view name) {
  const KernelEntry* kernel = FindKernel(name);
  if (kernel == nullptr || !kernel->available()) return nullptr;
  return kernel->fn;
}

Status ForcePackedKernel(std::string_view name) {
  const KernelEntry* kernel = FindKernel(name);
  if (kernel == nullptr) {
    return Status::InvalidArgument(
        "unknown probe kernel '" + std::string(name) +
        "' (known kernels: " + KnownKernelNames() + ")");
  }
  if (!kernel->available()) {
    return Status::FailedPrecondition(
        "probe kernel '" + std::string(name) +
        "' is not supported by this CPU");
  }
  g_packed_kernel.store(kernel, std::memory_order_release);
  return Status::OK();
}

void ResetPackedKernel() {
  g_packed_kernel.store(nullptr, std::memory_order_release);
}

uint32_t LowerBoundGallop(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target) {
  if (lo >= hi || items[lo] >= target) return lo;
  // Exponential probe from lo, then binary search the bracketed run.
  uint32_t step = 1;
  uint32_t prev = lo;
  while (lo + step < hi && items[lo + step] < target) {
    prev = lo + step;
    step <<= 1;
  }
  const ItemId* first = items + prev + 1;
  const ItemId* last = items + std::min<uint32_t>(hi, lo + step);
  return static_cast<uint32_t>(std::lower_bound(first, last, target) -
                               items);
}

}  // namespace trie_probe

namespace {

/// Expected node-stream jump per transaction item above which the
/// galloping probe beats the packed linear scan. The sibling stream is
/// usually L1-resident, where a sequential SIMD sweep costs ~1 cycle
/// per 4 items; galloping's dependent branchy accesses only win once
/// the average skip (run / remaining txn items) is a few hundred
/// items.
constexpr size_t kGallopJumpThreshold = 256;

/// True when the sibling run is long relative to the remaining
/// transaction suffix — each txn item then expects to skip
/// kGallopJumpThreshold+ siblings and the merge-walk switches to the
/// galloping probe for this frame.
inline bool UseGallop(uint32_t run, size_t txn_remaining) {
  return static_cast<size_t>(run) >
         kGallopJumpThreshold * (txn_remaining + 1);
}

}  // namespace

void CandidateTrie::Build(std::span<const Itemset> candidates) {
  k_ = 0;
  counts_.assign(candidates.size(), 0);
  items_.clear();
  child_begin_.clear();
  child_end_.clear();
  leaf_index_.clear();
  layer_begin_.clear();
  if (candidates.empty()) return;
  k_ = candidates[0].size();
  assert(k_ >= 1);

  // Sort candidate indices lexicographically so that each trie layer
  // can be laid out with contiguous child ranges.
  std::vector<uint32_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return candidates[a] < candidates[b];
  });

  // Exact per-layer node counts — the number of distinct depth-d
  // prefixes of the sorted candidate list — so every column is sized
  // precisely and MemoryBytes() stays exact (capacity == size on a
  // fresh trie).
  layer_begin_.assign(static_cast<size_t>(k_) + 1, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    int first_new = 0;
    if (i > 0) {
      const Itemset& prev = candidates[order[i - 1]];
      const Itemset& cur = candidates[order[i]];
      while (first_new < k_ && prev[first_new] == cur[first_new]) {
        ++first_new;
      }
      assert(first_new < k_ && "duplicate candidate itemsets");
    }
    for (int d = first_new; d < k_; ++d) {
      ++layer_begin_[static_cast<size_t>(d) + 1];
    }
  }
  for (int d = 0; d < k_; ++d) {
    layer_begin_[static_cast<size_t>(d) + 1] +=
        layer_begin_[static_cast<size_t>(d)];
  }
  const uint32_t num_nodes = layer_begin_[static_cast<size_t>(k_)];
  const uint32_t num_internal =
      layer_begin_[static_cast<size_t>(k_ - 1)];
  items_.resize(num_nodes);
  child_begin_.resize(num_internal);
  child_end_.resize(num_internal);
  leaf_index_.resize(num_nodes - num_internal);

  // Layer-by-layer construction, writing straight into the SoA columns
  // at per-layer cursors. Each pending range is a slice of the sorted
  // candidate list that shares a (depth)-prefix; grouping it by the
  // item at `depth` yields the sibling nodes of one parent. Node ids
  // are global (child ranges live in the next layer's id interval);
  // leaf slots are relative to the leaf layer.
  struct Range {
    uint32_t lo;
    uint32_t hi;  // exclusive
  };
  std::vector<Range> cur = {{0, static_cast<uint32_t>(order.size())}};
  std::vector<Range> nxt;
  std::vector<uint32_t> parent_of_range = {0};  // unused at depth 0
  std::vector<uint32_t> next_parent_of_range;

  for (int depth = 0; depth < k_; ++depth) {
    uint32_t cursor = layer_begin_[static_cast<size_t>(depth)];
    nxt.clear();
    next_parent_of_range.clear();
    for (size_t ri = 0; ri < cur.size(); ++ri) {
      const Range r = cur[ri];
      const uint32_t first_child = cursor;
      uint32_t i = r.lo;
      while (i < r.hi) {
        const ItemId item = candidates[order[i]][depth];
        uint32_t j = i;
        while (j < r.hi && candidates[order[j]][depth] == item) ++j;
        items_[cursor] = item;
        if (depth == k_ - 1) {
          assert(j - i == 1 && "duplicate candidate itemsets");
          leaf_index_[cursor - num_internal] = order[i];
        } else {
          nxt.push_back({i, j});
          next_parent_of_range.push_back(cursor);
        }
        ++cursor;
        i = j;
      }
      if (depth > 0) {
        const uint32_t parent = parent_of_range[ri];
        child_begin_[parent] = first_child;
        child_end_[parent] = cursor;
      }
    }
    assert(cursor == layer_begin_[static_cast<size_t>(depth) + 1]);
    cur = nxt;
    parent_of_range = next_parent_of_range;
  }
}

size_t CandidateTrie::num_nodes() const {
  return layer_begin_.empty() ? 0 : layer_begin_.back();
}

void CandidateTrie::CountTransaction(std::span<const ItemId> txn) {
  CountTransaction(txn, counts_);
}

void CandidateTrie::CountTransaction(std::span<const ItemId> txn,
                                     std::span<uint32_t> counts) const {
  if (counts_.empty() || static_cast<int>(txn.size()) < k_) return;
  assert(counts.size() == counts_.size());
  Walk(txn, counts.data());
}

void CandidateTrie::Walk(std::span<const ItemId> txn,
                         uint32_t* counts) const {
  // Iterative DFS with one frame per depth. Each frame is a sibling
  // range paired with a transaction cursor; resuming a frame continues
  // its merge-walk right after the previous match.
  struct Frame {
    uint32_t ni;  // next sibling node (global id)
    uint32_t ne;  // sibling range end
    uint32_t ti;  // next transaction position
  };
  std::array<Frame, kMaxItemsetSize> stack;
  // One dispatch load per transaction, not per probe.
  const trie_probe::ProbeFn packed = trie_probe::ResolvedPackedKernel();
  const ItemId* items = items_.data();
  const ItemId* txn_items = txn.data();
  const auto tn = static_cast<uint32_t>(txn.size());
  const uint32_t num_internal =
      layer_begin_[static_cast<size_t>(k_ - 1)];
  const int leaf_depth = k_ - 1;

  int depth = 0;
  stack[0] = {0, layer_begin_[1], 0};
  while (depth >= 0) {
    Frame& f = stack[static_cast<size_t>(depth)];
    const auto needed = static_cast<uint32_t>(k_ - depth);
    uint32_t ni = f.ni;
    uint32_t ti = f.ti;
    // Merge-advance to the next (node, txn) item match. Both streams
    // are sorted; whichever is behind jumps forward with a probe. The
    // probe choice is made once per frame resumption — the run only
    // shrinks from here, so a packed decision stays right, and a
    // gallop frame keeps galloping.
    bool matched = false;
    const bool gallop = ni < f.ne && UseGallop(f.ne - ni, tn - ti);
    while (ni < f.ne && tn - ti >= needed) {
      const ItemId want = txn_items[ti];
      ItemId have = items[ni];
      if (have < want) {
        ni = gallop
                 ? trie_probe::LowerBoundGallop(items, ni, f.ne, want)
                 : packed(items, ni, f.ne, want);
        if (ni >= f.ne) break;
        have = items[ni];
      }
      if (have == want) {
        matched = true;
        break;
      }
      // have > want: skip transaction items below it. The suffix is
      // nearly always short, so a scalar advance beats a probe call.
      ++ti;
      while (ti < tn && txn_items[ti] < have) ++ti;
    }
    if (!matched) {
      --depth;
      continue;
    }
    // Consume the match in this frame before descending so resumption
    // continues past it.
    f.ni = ni + 1;
    f.ti = ti + 1;
    if (depth == leaf_depth) {
      ++counts[leaf_index_[ni - num_internal]];
      continue;
    }
    stack[static_cast<size_t>(depth + 1)] = {child_begin_[ni],
                                             child_end_[ni], ti + 1};
    ++depth;
  }
}

int64_t CandidateTrie::MemoryBytes() const {
  return static_cast<int64_t>(
      (counts_.capacity() + child_begin_.capacity() +
       child_end_.capacity() + leaf_index_.capacity() +
       layer_begin_.capacity()) *
          sizeof(uint32_t) +
      items_.capacity() * sizeof(ItemId));
}

}  // namespace flipper
