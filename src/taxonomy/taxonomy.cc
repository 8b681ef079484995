#include "taxonomy/taxonomy.h"

#include <algorithm>

#include "common/logging.h"
#include "taxonomy/taxonomy_builder.h"

namespace flipper {

namespace {
const std::vector<ItemId> kEmptyChildren;
}  // namespace

std::span<const ItemId> Taxonomy::ChildrenOf(ItemId id) const {
  if (id >= children_.size()) return kEmptyChildren;
  return children_[id];
}

ItemId Taxonomy::AncestorAtLevel(ItemId id, int h) const {
  if (!IsNode(id) || h < 1 || h > height_) return kInvalidItem;
  int level = LevelOf(id);
  if (level == h) return id;
  if (level > h) {
    ItemId cur = id;
    while (level > h) {
      cur = parent_[cur];
      --level;
    }
    return cur;
  }
  // Deeper level requested: only leaves represent themselves below
  // their own level (Figure-3[B] copies).
  return IsLeaf(id) ? id : kInvalidItem;
}

const std::vector<ItemId>& Taxonomy::NodesAtLevel(int h) const {
  FLIPPER_CHECK(h >= 1 && h <= height_)
      << "level " << h << " outside [1, " << height_ << "]";
  return levels_[static_cast<size_t>(h - 1)];
}

std::vector<ItemId> Taxonomy::LevelMap(int h) const {
  std::vector<ItemId> lut(id_space(), kInvalidItem);
  for (size_t id = 0; id < id_space(); ++id) {
    if (IsNode(static_cast<ItemId>(id))) {
      lut[id] = AncestorAtLevel(static_cast<ItemId>(id), h);
    }
  }
  return lut;
}

Result<Taxonomy> Taxonomy::RestrictToLevels(
    std::span<const int> levels) const {
  if (levels.empty()) {
    return Status::InvalidArgument("RestrictToLevels: empty level list");
  }
  for (size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] < 1 || levels[i] > height_) {
      return Status::OutOfRange("RestrictToLevels: level " +
                                std::to_string(levels[i]) +
                                " outside [1, " + std::to_string(height_) +
                                "]");
    }
    if (i > 0 && levels[i] <= levels[i - 1]) {
      return Status::InvalidArgument(
          "RestrictToLevels: levels must be strictly increasing");
    }
  }
  if (levels.back() != height_) {
    return Status::InvalidArgument(
        "RestrictToLevels: the leaf level (height) must be retained");
  }

  TaxonomyBuilder builder;
  // For every node at a retained level, its new parent is its ancestor
  // at the previous retained level.
  for (size_t li = 0; li < levels.size(); ++li) {
    const int h = levels[li];
    for (ItemId node : NodesAtLevel(h)) {
      if (LevelOf(node) < h) continue;  // self-copy; original id suffices
      if (li == 0) {
        builder.AddRoot(node);
      } else {
        const ItemId parent = AncestorAtLevel(node, levels[li - 1]);
        FLIPPER_CHECK(parent != kInvalidItem);
        if (parent == node) {
          // Shallow leaf already added as its own level-(li-1) copy.
          continue;
        }
        FLIPPER_RETURN_IF_ERROR(builder.AddEdge(parent, node));
      }
    }
  }
  // Shallow leaves whose own level was dropped: attach to the ancestor
  // at the deepest retained level above them.
  for (ItemId leaf : leaves_) {
    const int leaf_level = LevelOf(leaf);
    if (std::find(levels.begin(), levels.end(), leaf_level) !=
        levels.end()) {
      continue;  // handled above
    }
    // Deepest retained level strictly above the leaf.
    int attach_level = 0;
    for (int h : levels) {
      if (h < leaf_level) attach_level = h;
    }
    if (attach_level == 0) {
      builder.AddRoot(leaf);
    } else {
      const ItemId parent = AncestorAtLevel(leaf, attach_level);
      FLIPPER_RETURN_IF_ERROR(builder.AddEdge(parent, leaf));
    }
  }
  return builder.Build();
}

Status Taxonomy::Validate() const {
  for (size_t id = 0; id < id_space(); ++id) {
    const auto iid = static_cast<ItemId>(id);
    if (!IsNode(iid)) continue;
    const ItemId p = parent_[id];
    if (level_[id] == 1) {
      if (p != kInvalidItem) {
        return Status::CorruptedData("level-1 node " + std::to_string(id) +
                                     " has a parent");
      }
    } else {
      if (p == kInvalidItem || !IsNode(p)) {
        return Status::CorruptedData("node " + std::to_string(id) +
                                     " has an invalid parent");
      }
      if (level_[p] + 1 != level_[id]) {
        return Status::CorruptedData("node " + std::to_string(id) +
                                     " level is not parent level + 1");
      }
      const auto& siblings = children_[p];
      if (std::find(siblings.begin(), siblings.end(), iid) ==
          siblings.end()) {
        return Status::CorruptedData("node " + std::to_string(id) +
                                     " missing from its parent's children");
      }
    }
  }
  return Status::OK();
}

}  // namespace flipper
