// Shared fixtures: the paper's Figure-4 toy dataset, randomized
// dataset construction for differential tests, a quest profile that
// drives cells into the scan-driven route, and a writer for the legacy
// v2 store layout (which the library reads but no longer writes).

#ifndef FLIPPER_TESTS_TEST_UTIL_H_
#define FLIPPER_TESTS_TEST_UTIL_H_

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/config.h"
#include "data/item_dictionary.h"
#include "data/segment_catalog.h"
#include "data/transaction_db.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "storage/format.h"
#include "storage/varint.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/taxonomy_builder.h"

namespace flipper {
namespace testutil {

struct Dataset {
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
};

/// The toy example of the paper's Figure 4: 8 leaf items in two
/// 3-level branches and 10 transactions. With gamma = 0.6 and
/// epsilon = 0.35 the only flipping pattern is {a11, b11} (Figure 5).
inline Dataset PaperToyDataset() {
  Dataset out;
  TaxonomyBuilder builder;
  auto intern = [&](const char* name) { return out.dict.Intern(name); };
  const ItemId a = intern("a");
  const ItemId b = intern("b");
  builder.AddRoot(a);
  builder.AddRoot(b);
  auto edge = [&](ItemId parent, const char* child) {
    const ItemId id = intern(child);
    FLIPPER_CHECK(builder.AddEdge(parent, id).ok());
    return id;
  };
  const ItemId a1 = edge(a, "a1");
  const ItemId a2 = edge(a, "a2");
  const ItemId b1 = edge(b, "b1");
  const ItemId b2 = edge(b, "b2");
  edge(a1, "a11");
  edge(a1, "a12");
  edge(a2, "a21");
  edge(a2, "a22");
  edge(b1, "b11");
  edge(b1, "b12");
  edge(b2, "b21");
  edge(b2, "b22");
  auto built = builder.Build();
  FLIPPER_CHECK(built.ok()) << built.status();
  out.taxonomy = std::move(built).value();

  auto add = [&](std::initializer_list<const char*> names) {
    std::vector<ItemId> items;
    for (const char* name : names) {
      auto id = out.dict.Find(name);
      FLIPPER_CHECK(id.ok());
      items.push_back(*id);
    }
    out.db.Add(items);
  };
  add({"a11", "a22", "b11", "b22"});  // D1
  add({"a11", "a21", "b11"});         // D2
  add({"a12", "a21"});                // D3
  add({"a12", "a22", "b21"});         // D4
  add({"a12", "a22", "b21"});         // D5
  add({"a12", "a21", "b22"});         // D6
  add({"a21", "b12"});                // D7
  add({"b12", "b21", "b22"});         // D8
  add({"b12", "b21"});                // D9
  add({"a22", "b12", "b22"});         // D10
  return out;
}

/// A random balanced taxonomy plus random transactions over its
/// leaves; used by the differential and property suites.
inline Dataset RandomDataset(uint64_t seed, uint32_t num_roots = 4,
                             uint32_t fanout = 2, uint32_t depth = 3,
                             uint32_t num_txns = 300,
                             uint32_t max_width = 6) {
  Dataset out;
  Rng rng(seed);
  TaxonomyBuilder builder;
  std::vector<ItemId> frontier;
  for (uint32_t r = 0; r < num_roots; ++r) {
    const ItemId id = out.dict.Intern("r" + std::to_string(r));
    builder.AddRoot(id);
    frontier.push_back(id);
  }
  for (uint32_t level = 2; level <= depth; ++level) {
    std::vector<ItemId> next;
    for (ItemId parent : frontier) {
      // Jitter the fanout a little so trees are not perfectly regular;
      // occasionally skip a child to create shallow leaves.
      const uint32_t children =
          fanout + (rng.Bernoulli(0.3) ? 1 : 0) -
          (fanout > 1 && rng.Bernoulli(0.2) ? 1 : 0);
      for (uint32_t c = 0; c < children; ++c) {
        const ItemId id = out.dict.Intern(
            std::string(out.dict.Name(parent)) + "." + std::to_string(c));
        FLIPPER_CHECK(builder.AddEdge(parent, id).ok());
        next.push_back(id);
      }
    }
    if (next.empty()) break;
    frontier = std::move(next);
  }
  auto built = builder.Build();
  FLIPPER_CHECK(built.ok()) << built.status();
  out.taxonomy = std::move(built).value();

  const std::vector<ItemId>& leaves = out.taxonomy.Leaves();
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < num_txns; ++t) {
    txn.clear();
    const uint32_t width =
        1 + static_cast<uint32_t>(rng.Below(max_width));
    for (uint32_t i = 0; i < width; ++i) {
      txn.push_back(leaves[rng.Below(leaves.size())]);
    }
    out.db.Add(txn);
  }
  return out;
}

/// Quest transactions over a balanced 10-root, fanout-5, depth-4
/// taxonomy. Mined with QuestScanConfig, the cartesian children
/// product explodes and the planner sends cells to the scan-driven
/// route.
inline Dataset QuestScanDataset() {
  Dataset out;
  TaxonomyGenParams tax_params;
  tax_params.num_roots = 10;
  tax_params.fanout = 5;
  tax_params.depth = 4;
  auto tax = GenerateBalancedTaxonomy(tax_params, &out.dict);
  FLIPPER_CHECK(tax.ok()) << tax.status();
  out.taxonomy = std::move(tax).value();
  QuestParams quest;
  quest.num_transactions = 4'000;
  quest.avg_width = 5.0;
  quest.num_patterns = 500;
  quest.seed = 42;
  auto db = GenerateQuest(quest, out.taxonomy);
  FLIPPER_CHECK(db.ok()) << db.status();
  out.db = std::move(db).value();
  return out;
}

/// Low supports with FLIPPING-only pruning: the profile the
/// scan-strategy ablation uses.
inline MiningConfig QuestScanConfig() {
  MiningConfig config;
  config.gamma = 0.3;
  config.epsilon = 0.1;
  config.min_support = {0.01, 0.001, 0.0005, 0.0001};
  config.pruning = PruningOptions::FlippingOnly();
  return config;
}

/// Layout knobs of WriteV2Store.
struct V2StoreOptions {
  /// Transactions per segment, counted from each block's start.
  uint32_t segment_txns = 1u << 16;
  /// Transactions at which a new column block pair starts
  /// (non-decreasing, within [0, db.size()]), the way each append
  /// session started one; empty = one block pair. Repeated starts, or
  /// a start at 0 or db.size(), write empty pairs.
  std::vector<uint64_t> block_starts;
};

/// Writes `db` as a legacy version-2 store (format.h): delta+varint
/// columns, one block pair per entry of `options.block_starts` plus
/// one, and a segment catalog from SegmentCatalog::Build. Segments are
/// cut every `segment_txns` transactions of a block and at every block
/// start. The section table follows the header, listing the items
/// blocks, the offsets blocks, then the singletons; a single-block
/// file has the section order and bytes older builds wrote.
inline void WriteV2Store(const std::string& path, const TransactionDb& db,
                         const ItemDictionary& dict,
                         const Taxonomy& taxonomy,
                         const V2StoreOptions& options = {}) {
  using storage::SectionEntry;
  using storage::SectionId;
  const uint64_t n = db.size();
  std::vector<uint64_t> starts = {0};
  starts.insert(starts.end(), options.block_starts.begin(),
                options.block_starts.end());
  starts.push_back(n);

  std::vector<uint64_t> segments = {0};
  std::vector<std::vector<uint8_t>> items_blocks;
  std::vector<std::vector<uint8_t>> offsets_blocks;
  ItemId alphabet = 0;
  uint32_t max_width = 0;
  for (size_t b = 0; b + 1 < starts.size(); ++b) {
    FLIPPER_CHECK(starts[b] <= starts[b + 1]);
    std::vector<uint8_t> items;
    std::vector<uint8_t> widths;
    for (uint64_t t = starts[b]; t < starts[b + 1]; ++t) {
      const auto txn = db.Get(static_cast<TxnId>(t));
      storage::PutVarint(txn.size(), &widths);
      for (size_t i = 0; i < txn.size(); ++i) {
        storage::PutVarint(i == 0 ? txn[i] : txn[i] - txn[i - 1], &items);
      }
      max_width = std::max(max_width, static_cast<uint32_t>(txn.size()));
      if (!txn.empty()) alphabet = std::max(alphabet, txn.back() + 1);
      if ((t + 1 - starts[b]) % options.segment_txns == 0 ||
          t + 1 == starts[b + 1]) {
        segments.push_back(t + 1);
      }
    }
    items_blocks.push_back(std::move(items));
    offsets_blocks.push_back(std::move(widths));
  }

  const SegmentCatalog catalog = SegmentCatalog::Build(
      db, segments, SegmentCatalog::kDefaultTrackedItems,
      SegmentCatalog::kDefaultBitsetWords);
  std::vector<uint8_t> catalog_bytes;
  const auto put = [&catalog_bytes](const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    catalog_bytes.insert(catalog_bytes.end(), p, p + size);
  };
  storage::SegCatalogHeader catalog_header;
  catalog_header.tracked_count =
      static_cast<uint32_t>(catalog.tracked_ids().size());
  catalog_header.bitset_words = SegmentCatalog::kDefaultBitsetWords;
  put(&catalog_header, sizeof(catalog_header));
  put(catalog.tracked_ids().data(), catalog.tracked_ids().size_bytes());
  for (size_t seg = 0; seg < catalog.num_segments(); ++seg) {
    const ItemId lo = catalog.min_item(seg);
    const ItemId hi = catalog.max_item(seg);
    put(&lo, sizeof(lo));
    put(&hi, sizeof(hi));
    put(catalog.segment_bits(seg).data(),
        catalog.segment_bits(seg).size_bytes());
    put(catalog.segment_tracked_supports(seg).data(),
        catalog.segment_tracked_supports(seg).size_bytes());
  }

  std::vector<uint64_t> name_offsets = {0};
  std::string blob;
  for (ItemId id = 0; id < dict.size(); ++id) {
    blob += dict.Name(id);
    name_offsets.push_back(blob.size());
  }
  std::vector<ItemId> parents(taxonomy.id_space());
  for (size_t id = 0; id < parents.size(); ++id) {
    parents[id] = taxonomy.ParentOf(static_cast<ItemId>(id));
  }
  const std::vector<ItemId>& roots = taxonomy.Level1();

  // Payloads in file order, each with its table slot.
  struct Payload {
    SectionId id;
    const void* data;
    size_t size;
    size_t slot;
  };
  const size_t blocks = items_blocks.size();
  std::vector<Payload> payloads;
  for (size_t b = 0; b < blocks; ++b) {
    payloads.push_back({SectionId::kTxnItems, items_blocks[b].data(),
                        items_blocks[b].size(), b});
    payloads.push_back({SectionId::kTxnOffsets, offsets_blocks[b].data(),
                        offsets_blocks[b].size(), blocks + b});
  }
  size_t slot = 2 * blocks;
  payloads.push_back({SectionId::kSegments, segments.data(),
                      segments.size() * sizeof(uint64_t), slot++});
  payloads.push_back({SectionId::kDictOffsets, name_offsets.data(),
                      name_offsets.size() * sizeof(uint64_t), slot++});
  payloads.push_back(
      {SectionId::kDictBlob, blob.data(), blob.size(), slot++});
  payloads.push_back({SectionId::kTaxParents, parents.data(),
                      parents.size() * sizeof(ItemId), slot++});
  payloads.push_back({SectionId::kTaxRoots, roots.data(),
                      roots.size() * sizeof(ItemId), slot++});
  payloads.push_back({SectionId::kSegCatalog, catalog_bytes.data(),
                      catalog_bytes.size(), slot++});

  std::vector<SectionEntry> table(payloads.size());
  std::string bytes(sizeof(storage::FileHeader) +
                        table.size() * sizeof(SectionEntry),
                    '\0');
  for (const Payload& p : payloads) {
    SectionEntry& e = table[p.slot];
    e.id = static_cast<uint32_t>(p.id);
    e.offset = bytes.size();
    e.size = p.size;
    e.checksum = storage::Fnv1a64(p.data, p.size);
    bytes.append(static_cast<const char*>(p.data), p.size);
    bytes.resize(storage::AlignUp(bytes.size()), '\0');
  }

  storage::FileHeader h;
  std::memcpy(h.magic, storage::kMagic, sizeof(storage::kMagic));
  h.version = storage::kFormatVersionV2;
  h.section_count = static_cast<uint32_t>(table.size());
  h.file_size = bytes.size();
  h.num_transactions = n;
  h.num_items = db.total_items();
  h.num_segments = segments.size() - 1;
  h.alphabet_size = alphabet;
  h.max_width = max_width;
  h.dict_size = dict.size();
  h.taxonomy_id_space = static_cast<uint32_t>(taxonomy.id_space());
  h.taxonomy_num_roots = static_cast<uint32_t>(roots.size());
  h.table_checksum =
      storage::Fnv1a64(table.data(), table.size() * sizeof(SectionEntry));
  h.header_checksum = storage::HeaderChecksum(h);
  std::memcpy(bytes.data(), &h, sizeof(h));
  std::memcpy(bytes.data() + sizeof(h), table.data(),
              table.size() * sizeof(SectionEntry));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FLIPPER_CHECK(out.good()) << "cannot write " << path;
}

}  // namespace testutil
}  // namespace flipper

#endif  // FLIPPER_TESTS_TEST_UTIL_H_
