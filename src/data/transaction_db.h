// TransactionDb: an immutable-after-build, CSR-style store of
// transactions. Items within a transaction are sorted and
// duplicate-free; the flattened layout keeps scans cache-friendly,
// which matters because the paper's counting model is "sequential scans
// of the input data" (§5).
//
// The CSR arrays either live in owned vectors (the default, grown via
// Add, or adopted whole via FromOwned) or borrow externally owned
// memory — e.g. sections of a memory-mapped FlipperStore file, or
// another db's storage — via FromBorrowed()/Borrow(). Reads are
// identical either way; a mutating call on a borrowed db first copies
// the borrowed data into owned storage.

#ifndef FLIPPER_DATA_TRANSACTION_DB_H_
#define FLIPPER_DATA_TRANSACTION_DB_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"
#include "data/types.h"

namespace flipper {

class SegmentCatalog;

/// std::allocator whose value-less construct() default-initializes, so
/// resize() leaves new trivial elements unwritten instead of zeroing
/// them. A builder that then writes every element itself touches each
/// fresh page once, from whichever thread writes it.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

class TransactionDb {
 public:
  /// Owned CSR storage.
  using Items = std::vector<ItemId, DefaultInitAllocator<ItemId>>;
  using Offsets = std::vector<uint64_t, DefaultInitAllocator<uint64_t>>;

  TransactionDb() {
    offsets_.push_back(0);
    SyncViews();
  }

  TransactionDb(const TransactionDb& other);
  TransactionDb& operator=(const TransactionDb& other);
  TransactionDb(TransactionDb&& other) noexcept;
  TransactionDb& operator=(TransactionDb&& other) noexcept;
  ~TransactionDb() = default;

  /// Wraps externally owned CSR storage without copying. `offsets`
  /// must hold N + 1 monotone boundaries starting at 0 and ending at
  /// items.size(), and every transaction's items must be sorted and
  /// duplicate-free; callers (the storage layer) validate this before
  /// wrapping. The backing memory must outlive this db and every copy
  /// of it.
  static TransactionDb FromBorrowed(std::span<const uint64_t> offsets,
                                    std::span<const ItemId> items,
                                    ItemId alphabet_size,
                                    uint32_t max_width);

  /// Adopts CSR vectors built elsewhere, without copying. Same
  /// invariants as FromBorrowed; `alphabet_size` and `max_width` must
  /// describe the items exactly.
  static TransactionDb FromOwned(Offsets offsets, Items items,
                                 ItemId alphabet_size, uint32_t max_width);

  /// A borrowed db over this db's storage, without copying (the
  /// segment catalog is shared). This db's storage must outlive the
  /// result and every copy of it, and stay unmodified.
  TransactionDb Borrow() const;

  /// True while the CSR arrays point at external memory.
  bool borrowed() const { return borrowed_; }

  /// Appends a transaction; the items are copied, sorted and deduped.
  /// Empty transactions are allowed (they are null transactions for
  /// every itemset).
  void Add(std::span<const ItemId> items);
  void Add(std::initializer_list<ItemId> items) {
    Add(std::span<const ItemId>(items.begin(), items.size()));
  }

  uint32_t size() const {
    return static_cast<uint32_t>(offsets_view_.size() - 1);
  }
  bool empty() const { return size() == 0; }

  /// Position of transaction `t`'s first item in the flattened item
  /// array (t <= size(); offset(size()) == total_items()).
  uint64_t offset(TxnId t) const { return offsets_view_[t]; }

  /// Sorted, duplicate-free view of transaction `t`.
  std::span<const ItemId> Get(TxnId t) const {
    const size_t b = offsets_view_[t];
    const size_t e = offsets_view_[t + 1];
    return {items_view_.data() + b, e - b};
  }

  /// True if transaction `t` contains every item of `itemset`
  /// (merge-style subset test over the sorted layouts).
  bool Contains(TxnId t, const Itemset& itemset) const;

  /// Number of transactions containing `itemset` (full scan, one
  /// Contains test per transaction). This is the brute-force reference
  /// the counting tests compare SupportCounter against; the miners
  /// count through SupportCounter instead.
  uint32_t CountSupport(const Itemset& itemset) const;

  /// Largest ItemId present plus one (0 for an empty database).
  ItemId alphabet_size() const { return alphabet_size_; }

  uint32_t max_width() const { return max_width_; }
  double avg_width() const {
    return empty() ? 0.0
                   : static_cast<double>(items_view_.size()) / size();
  }
  uint64_t total_items() const { return items_view_.size(); }

  /// Per-item occurrence counts (size alphabet_size()).
  std::vector<uint32_t> ItemFrequencies() const;

  /// Rewrites every item through `ancestor_of` (size >= alphabet_size())
  /// and returns the generalized database; duplicates collapse, so
  /// generalized transactions can be narrower. Items mapped to
  /// kInvalidItem are dropped. A serial, one-level reference rewrite:
  /// LevelViews::Build generalizes every level in one sharded pass.
  TransactionDb Generalize(std::span<const ItemId> ancestor_of) const;

  /// Approximate heap footprint in bytes (borrowed storage counts as
  /// zero — it belongs to the backing file/mapping).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(items_.capacity() * sizeof(ItemId) +
                                offsets_.capacity() * sizeof(uint64_t));
  }

  void Reserve(uint32_t num_txns, uint64_t num_items) {
    EnsureOwned();
    offsets_.reserve(num_txns + 1);
    items_.reserve(num_items);
    SyncViews();
  }

  /// Attaches a segment catalog describing this database (its
  /// boundaries must end at size()). The catalog is advisory metadata;
  /// it is shared by copies and dropped by any
  /// mutation that could invalidate it (Add).
  void AttachSegmentCatalog(std::shared_ptr<const SegmentCatalog> catalog) {
    catalog_ = std::move(catalog);
  }
  const std::shared_ptr<const SegmentCatalog>& segment_catalog() const {
    return catalog_;
  }

 private:
  /// Copies borrowed storage into the owned vectors (no-op when
  /// already owned).
  void EnsureOwned();
  /// Valid empty state without allocating: borrows a static empty CSR
  /// sentinel (used to reset moved-from objects in noexcept moves).
  void ResetToEmpty() noexcept;
  void SyncViews() {
    offsets_view_ = offsets_;
    items_view_ = items_;
  }

  Items items_;      // flattened transactions (owned)
  Offsets offsets_;  // size() + 1 boundaries (owned)
  /// Read views: aliases of the owned vectors, or external memory when
  /// borrowed_ is set. Every accessor goes through these.
  std::span<const ItemId> items_view_;
  std::span<const uint64_t> offsets_view_;
  bool borrowed_ = false;
  ItemId alphabet_size_ = 0;
  uint32_t max_width_ = 0;
  /// Optional per-segment metadata (see AttachSegmentCatalog).
  std::shared_ptr<const SegmentCatalog> catalog_;
};

}  // namespace flipper

#endif  // FLIPPER_DATA_TRANSACTION_DB_H_
