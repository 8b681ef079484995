#include "data/transaction_db.h"

#include "data/segment_catalog.h"

#include <algorithm>

namespace flipper {
namespace {

/// Sentinel CSR of an empty database; moved-from objects borrow it so
/// resetting them never allocates (the moves are noexcept).
constexpr uint64_t kEmptyOffsets[1] = {0};

}  // namespace

void TransactionDb::ResetToEmpty() noexcept {
  items_.clear();
  offsets_.clear();
  catalog_.reset();
  items_view_ = {};
  offsets_view_ = std::span<const uint64_t>(kEmptyOffsets, 1);
  borrowed_ = true;
  alphabet_size_ = 0;
  max_width_ = 0;
}

TransactionDb::TransactionDb(const TransactionDb& other)
    : items_(other.items_),
      offsets_(other.offsets_),
      borrowed_(other.borrowed_),
      alphabet_size_(other.alphabet_size_),
      max_width_(other.max_width_),
      catalog_(other.catalog_) {
  if (borrowed_) {
    items_view_ = other.items_view_;
    offsets_view_ = other.offsets_view_;
  } else {
    SyncViews();
  }
}

TransactionDb& TransactionDb::operator=(const TransactionDb& other) {
  if (this != &other) {
    items_ = other.items_;
    offsets_ = other.offsets_;
    borrowed_ = other.borrowed_;
    alphabet_size_ = other.alphabet_size_;
    max_width_ = other.max_width_;
    catalog_ = other.catalog_;
    if (borrowed_) {
      items_view_ = other.items_view_;
      offsets_view_ = other.offsets_view_;
    } else {
      SyncViews();
    }
  }
  return *this;
}

TransactionDb::TransactionDb(TransactionDb&& other) noexcept
    : items_(std::move(other.items_)),
      offsets_(std::move(other.offsets_)),
      borrowed_(other.borrowed_),
      alphabet_size_(other.alphabet_size_),
      max_width_(other.max_width_),
      catalog_(std::move(other.catalog_)) {
  if (borrowed_) {
    items_view_ = other.items_view_;
    offsets_view_ = other.offsets_view_;
  } else {
    SyncViews();
  }
  other.ResetToEmpty();
}

TransactionDb& TransactionDb::operator=(TransactionDb&& other) noexcept {
  if (this != &other) {
    items_ = std::move(other.items_);
    offsets_ = std::move(other.offsets_);
    borrowed_ = other.borrowed_;
    alphabet_size_ = other.alphabet_size_;
    max_width_ = other.max_width_;
    catalog_ = std::move(other.catalog_);
    if (borrowed_) {
      items_view_ = other.items_view_;
      offsets_view_ = other.offsets_view_;
    } else {
      SyncViews();
    }
    other.ResetToEmpty();
  }
  return *this;
}

TransactionDb TransactionDb::FromBorrowed(std::span<const uint64_t> offsets,
                                          std::span<const ItemId> items,
                                          ItemId alphabet_size,
                                          uint32_t max_width) {
  TransactionDb db;
  db.offsets_.clear();
  db.items_view_ = items;
  db.offsets_view_ = offsets;
  db.borrowed_ = true;
  db.alphabet_size_ = alphabet_size;
  db.max_width_ = max_width;
  return db;
}

TransactionDb TransactionDb::FromOwned(Offsets offsets, Items items,
                                       ItemId alphabet_size,
                                       uint32_t max_width) {
  TransactionDb db;
  db.offsets_ = std::move(offsets);
  db.items_ = std::move(items);
  db.alphabet_size_ = alphabet_size;
  db.max_width_ = max_width;
  db.SyncViews();
  return db;
}

TransactionDb TransactionDb::Borrow() const {
  TransactionDb db = FromBorrowed(offsets_view_, items_view_,
                                  alphabet_size_, max_width_);
  db.catalog_ = catalog_;
  return db;
}

void TransactionDb::EnsureOwned() {
  if (!borrowed_) return;
  items_.assign(items_view_.begin(), items_view_.end());
  offsets_.assign(offsets_view_.begin(), offsets_view_.end());
  borrowed_ = false;
  SyncViews();
}

void TransactionDb::Add(std::span<const ItemId> items) {
  EnsureOwned();
  catalog_.reset();  // boundaries/contents no longer describe this db
  const size_t start = items_.size();
  items_.insert(items_.end(), items.begin(), items.end());
  auto begin = items_.begin() + static_cast<ptrdiff_t>(start);
  std::sort(begin, items_.end());
  items_.erase(std::unique(begin, items_.end()), items_.end());
  offsets_.push_back(items_.size());
  const auto width = static_cast<uint32_t>(items_.size() - start);
  max_width_ = std::max(max_width_, width);
  if (width > 0) {
    alphabet_size_ = std::max(alphabet_size_, items_.back() + 1);
  }
  SyncViews();
}

bool TransactionDb::Contains(TxnId t, const Itemset& itemset) const {
  std::span<const ItemId> txn = Get(t);
  return std::includes(txn.begin(), txn.end(), itemset.begin(),
                       itemset.end());
}

uint32_t TransactionDb::CountSupport(const Itemset& itemset) const {
  uint32_t count = 0;
  for (TxnId t = 0; t < size(); ++t) {
    if (Contains(t, itemset)) ++count;
  }
  return count;
}

std::vector<uint32_t> TransactionDb::ItemFrequencies() const {
  std::vector<uint32_t> freq(alphabet_size_, 0);
  for (ItemId it : items_view_) ++freq[it];
  return freq;
}

TransactionDb TransactionDb::Generalize(
    std::span<const ItemId> ancestor_of) const {
  TransactionDb out;
  out.Reserve(size(), total_items());
  std::vector<ItemId> buffer;
  for (TxnId t = 0; t < size(); ++t) {
    buffer.clear();
    for (ItemId it : Get(t)) {
      const ItemId anc =
          it < ancestor_of.size() ? ancestor_of[it] : kInvalidItem;
      if (anc != kInvalidItem) buffer.push_back(anc);
    }
    out.Add(buffer);
  }
  return out;
}

}  // namespace flipper
