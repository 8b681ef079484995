#include "core/cell.h"

#include <algorithm>
#include <cassert>

namespace flipper {

Cell& Cell::operator=(Cell&& other) noexcept {
  if (this != &other) {
    Release();
    k_ = other.k_;
    tracker_ = other.tracker_;
    items_ = std::move(other.items_);
    support_ = std::move(other.support_);
    corr_ = std::move(other.corr_);
    label_ = std::move(other.label_);
    flags_ = std::move(other.flags_);
    parent_ = std::move(other.parent_);
    other.support_.clear();
    other.tracker_ = nullptr;
  }
  return *this;
}

Itemset Cell::itemset(size_t row) const {
  Itemset out;
  for (ItemId item : items(row)) out.PushBack(item);
  return out;
}

uint32_t Cell::Find(const Itemset& itemset) const {
  if (itemset.size() != k_) return kNoRow;
  size_t lo = 0;
  size_t hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const std::span<const ItemId> row = items(mid);
    if (std::lexicographical_compare(row.begin(), row.end(),
                                     itemset.begin(), itemset.end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == size() ||
      !std::equal(itemset.begin(), itemset.end(), items(lo).begin())) {
    return kNoRow;
  }
  return static_cast<uint32_t>(lo);
}

void Cell::Resize(size_t n) {
  if (tracker_ != nullptr) {
    tracker_->Add((static_cast<int64_t>(n) - static_cast<int64_t>(size())) *
                  BytesPerRow(k_));
  }
  items_.resize(n * static_cast<size_t>(k_));
  support_.resize(n);
  corr_.resize(n);
  label_.resize(n);
  flags_.resize(n);
  parent_.resize(n);
}

void Cell::Set(size_t row, const Itemset& itemset, uint32_t support,
               double corr, Label label, uint8_t flags, uint32_t parent) {
  assert(itemset.size() == k_);
  std::copy(itemset.begin(), itemset.end(),
            items_.begin() + static_cast<ptrdiff_t>(row) * k_);
  support_[row] = support;
  corr_[row] = corr;
  label_[row] = label;
  flags_[row] = flags;
  parent_[row] = parent;
}

size_t Cell::Retain(Flag flag, Cell* child) {
  const size_t k = static_cast<size_t>(k_);
  std::vector<uint32_t> moved_to(child != nullptr ? size() : 0, kNoRow);
  size_t out = 0;
  for (size_t row = 0; row < size(); ++row) {
    if ((flags_[row] & flag) == 0) continue;
    if (child != nullptr) moved_to[row] = static_cast<uint32_t>(out);
    std::copy_n(items_.begin() + static_cast<ptrdiff_t>(row * k), k,
                items_.begin() + static_cast<ptrdiff_t>(out * k));
    support_[out] = support_[row];
    corr_[out] = corr_[row];
    label_[out] = label_[row];
    flags_[out] = flags_[row];
    parent_[out] = parent_[row];
    ++out;
  }
  const size_t dropped = size() - out;
  Resize(out);
  if (child != nullptr) {
    for (uint32_t& link : child->parent_) {
      if (link != kNoRow) link = moved_to[link];
    }
  }
  return dropped;
}

bool Cell::AllNonPositive() const {
  return std::find(label_.begin(), label_.end(), Label::kPositive) ==
         label_.end();
}

void Cell::Release() { Resize(0); }

}  // namespace flipper
