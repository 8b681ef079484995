// Taxonomy: the is-a hierarchy over items (paper §2.2).
//
// The (virtual) root is implicit and excluded from correlation mining;
// level 1 holds the most general real nodes, level H the deepest
// leaves. Leaves shallower than H represent themselves at every deeper
// level — the paper's Figure-3[B] rebalancing ("consider the copies of
// leaf nodes as their generalizations") without materializing copies.
// A Figure-3[A]-style truncation is available via RestrictToLevels().

#ifndef FLIPPER_TAXONOMY_TAXONOMY_H_
#define FLIPPER_TAXONOMY_TAXONOMY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/types.h"

namespace flipper {

class TaxonomyBuilder;

class Taxonomy {
 public:
  /// Creates an empty taxonomy (height 0, no nodes); build real ones
  /// with TaxonomyBuilder.
  Taxonomy() = default;

  /// Height H: the number of levels from level 1 to the deepest leaf.
  int height() const { return height_; }

  /// Number of nodes known to the taxonomy (ids may be sparse; absent
  /// ids are not part of the taxonomy).
  size_t id_space() const { return parent_.size(); }

  /// True if `id` is a taxonomy node.
  bool IsNode(ItemId id) const {
    return id < level_.size() && level_[id] != 0;
  }

  /// Level of a node (1-based from the top). Requires IsNode(id).
  int LevelOf(ItemId id) const { return level_[id]; }

  /// Parent node, or kInvalidItem for level-1 nodes.
  ItemId ParentOf(ItemId id) const { return parent_[id]; }

  /// Children of a node (empty for leaves).
  std::span<const ItemId> ChildrenOf(ItemId id) const;

  bool IsLeaf(ItemId id) const { return ChildrenOf(id).empty(); }

  /// The node that represents `id` at level `h` (1 <= h <= height()):
  /// walks up when LevelOf(id) > h; returns `id` itself when it is a
  /// leaf at a shallower level (self-copy semantics). Returns
  /// kInvalidItem when `id` is not a node or when an internal node is
  /// asked for a deeper level than its own.
  ItemId AncestorAtLevel(ItemId id, int h) const;

  /// The level-1 ancestor (used for the distinct-level-1-roots
  /// constraint on flipping patterns). O(1) via a precomputed table.
  ItemId RootOf(ItemId id) const {
    return id < root_.size() ? root_[id] : kInvalidItem;
  }

  /// All nodes that exist at level `h` including shallow-leaf
  /// self-copies; this is exactly the vocabulary of the level-h
  /// generalized database.
  const std::vector<ItemId>& NodesAtLevel(int h) const;

  /// All leaves (transaction vocabulary).
  const std::vector<ItemId>& Leaves() const { return leaves_; }

  /// Level-1 nodes.
  const std::vector<ItemId>& Level1() const { return levels_[0]; }

  /// Lookup table `lut` with lut[id] = AncestorAtLevel(id, h) for every
  /// id in [0, id_space), kInvalidItem for non-nodes. Feed it to
  /// TransactionDb::Generalize.
  std::vector<ItemId> LevelMap(int h) const;

  /// Returns a new taxonomy using only the given levels of this one
  /// (Def. 2's truncated-taxonomy queries; also Figure-3[A] when called
  /// with the consistent levels). `levels` must be a non-empty,
  /// strictly increasing subset of [1, height()] that contains
  /// height(); leaves keep their ids, internal nodes keep theirs.
  Result<Taxonomy> RestrictToLevels(std::span<const int> levels) const;

  /// Structural sanity check (parents valid, levels consistent,
  /// children lists match parents). OK for builder-produced trees;
  /// mainly used by tests and after deserialization.
  Status Validate() const;

 private:
  friend class TaxonomyBuilder;

  int height_ = 0;
  std::vector<ItemId> parent_;           // kInvalidItem for level 1 / absent
  std::vector<int32_t> level_;           // 0 = not a node
  std::vector<ItemId> root_;             // level-1 ancestor per node
  std::vector<std::vector<ItemId>> children_;
  std::vector<std::vector<ItemId>> levels_;  // levels_[h-1] incl. copies
  std::vector<ItemId> leaves_;
};

}  // namespace flipper

#endif  // FLIPPER_TAXONOMY_TAXONOMY_H_
