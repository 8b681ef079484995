#include "storage/store_reader.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "taxonomy/taxonomy_builder.h"

namespace flipper {
namespace storage {
namespace {

Status Corrupt(const std::string& what) {
  return Status::CorruptedData("store file: " + what);
}

std::span<const uint64_t> U64Span(const std::byte* base,
                                  const SectionEntry& e) {
  return {reinterpret_cast<const uint64_t*>(base + e.offset),
          static_cast<size_t>(e.size / sizeof(uint64_t))};
}

std::span<const uint32_t> U32Span(const std::byte* base,
                                  const SectionEntry& e) {
  return {reinterpret_cast<const uint32_t*>(base + e.offset),
          static_cast<size_t>(e.size / sizeof(uint32_t))};
}

/// Requires the section to hold exactly `count` elements of
/// `elem_size` bytes.
Status CheckElementCount(const SectionEntry& e, uint64_t count,
                         uint64_t elem_size) {
  if (e.size % elem_size != 0 || e.size / elem_size != count) {
    return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                   " section holds " + std::to_string(e.size) +
                   " bytes, expected " + std::to_string(count) +
                   " x " + std::to_string(elem_size));
  }
  return Status::OK();
}

/// Parses and checks a FileHeader at `at` (magic, version, checksum —
/// everything that can be judged from the 104 bytes alone).
Result<FileHeader> ParseHeaderAt(const std::byte* at, uint64_t avail,
                                 const std::string& path) {
  if (avail < sizeof(FileHeader)) {
    return Corrupt("truncated header (" + std::to_string(avail) +
                   " bytes, need " + std::to_string(sizeof(FileHeader)) +
                   "): " + path);
  }
  FileHeader h;
  std::memcpy(&h, at, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic, not a FlipperStore file: " + path);
  }
  if (SectionCountForVersion(h.version) == 0) {
    return Status::InvalidArgument(
        "unsupported store version " + std::to_string(h.version) +
        " (this build reads only version " +
        std::to_string(kFormatVersionV1) +
        "; a store written by an older build must be regenerated from "
        "its source files with `flipper_cli convert` or `flipper_cli "
        "datagen`): " + path);
  }
  if (HeaderChecksum(h) != h.header_checksum) {
    return Corrupt("header checksum mismatch: " + path);
  }
  return h;
}

/// Items per chunk of SummarizeItems' inner loop.
constexpr size_t kSummaryChunk = 64;

/// The branch-free part of the item check.
struct ItemSummary {
  ItemId max_item = 0;
  /// Adjacent pairs with items[i-1] >= items[i], counted across
  /// transaction boundaries too.
  uint64_t unordered_pairs = 0;
};

/// One pass over a block's items in place. The inner loop runs a fixed
/// kSummaryChunk items so that GCC vectorizes it at -O2, whose
/// "very-cheap" cost model rejects loops that need a scalar epilogue.
ItemSummary SummarizeItems(std::span<const ItemId> items) {
  ItemSummary summary;
  if (items.empty()) return summary;
  const ItemId* p = items.data();
  const size_t n = items.size();
  ItemId max_item = p[0];
  uint64_t unordered = 0;
  size_t i = 1;
  for (; i + kSummaryChunk <= n; i += kSummaryChunk) {
    ItemId chunk_max = 0;
    uint32_t chunk_unordered = 0;
    for (size_t k = 0; k < kSummaryChunk; ++k) {
      chunk_max = std::max(chunk_max, p[i + k]);
      chunk_unordered += p[i + k - 1] >= p[i + k];
    }
    max_item = std::max(max_item, chunk_max);
    unordered += chunk_unordered;
  }
  for (; i < n; ++i) {
    max_item = std::max(max_item, p[i]);
    unordered += p[i - 1] >= p[i];
  }
  summary.max_item = max_item;
  summary.unordered_pairs = unordered;
  return summary;
}

/// The unordered pairs that straddle two transactions: one per
/// distinct transaction start strictly inside the block (an empty
/// transaction repeats its successor's start). The bounds must have
/// passed CheckColumns.
uint64_t CountUnorderedStarts(std::span<const uint64_t> bounds,
                              std::span<const ItemId> items) {
  const uint64_t first = bounds.front();
  const uint64_t last = bounds.back();
  uint64_t unordered = 0;
  for (size_t t = 1; t + 1 < bounds.size(); ++t) {
    const uint64_t start = bounds[t];
    if (start != bounds[t - 1] && start != last) {
      const uint64_t i = start - first;
      unordered += items[i - 1] >= items[i];
    }
  }
  return unordered;
}

/// The exact per-transaction check of one block, run only on a block
/// whose summary failed: reports the block's lowest failing
/// transaction by its index in the whole column.
Status CheckItemsExactly(std::span<const uint64_t> bounds,
                         std::span<const ItemId> items, uint64_t first_txn,
                         ItemId alphabet_size) {
  const uint64_t first = bounds.front();
  for (size_t t = 0; t + 1 < bounds.size(); ++t) {
    const uint64_t lo = bounds[t] - first;
    const uint64_t hi = bounds[t + 1] - first;
    for (uint64_t i = lo; i < hi; ++i) {
      const ItemId item = items[i];
      if (item >= alphabet_size) {
        return Corrupt("item id " + std::to_string(item) +
                       " out of range in txn " +
                       std::to_string(first_txn + t));
      }
      if (i > lo && items[i - 1] >= item) {
        return Corrupt("items of txn " + std::to_string(first_txn + t) +
                       " are not sorted and duplicate-free");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status StoreReader::CheckColumns(
    const std::byte* base,
    std::span<const SectionEntry* const> offsets_blocks,
    std::span<const SectionEntry* const> items_blocks,
    std::vector<ColumnBlock>* blocks) const {
  const FileHeader& h = header_;
  // The k-th offsets block holds absolute boundaries that continue
  // block k-1, and pairs with the k-th items block, which holds exactly
  // the items those boundaries span.
  uint64_t num_txns = 0;
  uint64_t num_items = 0;
  blocks->reserve(offsets_blocks.size());
  for (size_t b = 0; b < offsets_blocks.size(); ++b) {
    const SectionEntry& oe = *offsets_blocks[b];
    const SectionEntry& ie = *items_blocks[b];
    const std::string block = " block " + std::to_string(b);
    if (oe.size == 0 || oe.size % sizeof(uint64_t) != 0) {
      return Corrupt("txn_offsets" + block + " holds " +
                     std::to_string(oe.size) +
                     " bytes, not a whole number of boundaries");
    }
    if (ie.size % sizeof(ItemId) != 0) {
      return Corrupt("txn_items" + block + " holds " +
                     std::to_string(ie.size) +
                     " bytes, not a whole number of items");
    }
    const std::span<const uint64_t> bounds = U64Span(base, oe);
    if (bounds.front() != num_items) {
      return Corrupt("txn_offsets" + block +
                     " does not continue its predecessor: starts at " +
                     std::to_string(bounds.front()) + ", expected " +
                     std::to_string(num_items));
    }
    if (bounds.back() < bounds.front() ||
        bounds.back() - bounds.front() != ie.size / sizeof(ItemId)) {
      return Corrupt("column" + block + " does not end on a "
                     "transaction boundary: txn_offsets spans " +
                     std::to_string(bounds.back() - bounds.front()) +
                     " items, txn_items holds " +
                     std::to_string(ie.size / sizeof(ItemId)));
    }
    blocks->push_back({bounds, U32Span(base, ie)});
    num_txns += bounds.size() - 1;
    num_items = bounds.back();
  }
  if (num_txns != h.num_transactions || num_items != h.num_items) {
    return Corrupt("column blocks hold " + std::to_string(num_txns) +
                   " transactions and " + std::to_string(num_items) +
                   " items, header records " +
                   std::to_string(h.num_transactions) + " and " +
                   std::to_string(h.num_items));
  }

  // TransactionDb::Get hands out spans straight from these offsets, so
  // they are checked even on trusted opens (O(transactions)). The block
  // checks above pinned each block's first boundary to its
  // predecessor's last, the first to 0 and the last to num_items.
  uint32_t max_width = 0;
  uint64_t txn = 0;
  for (const ColumnBlock& block : *blocks) {
    const std::span<const uint64_t> csr = block.bounds;
    for (size_t t = 0; t + 1 < csr.size(); ++t, ++txn) {
      const uint64_t lo = csr[t];
      const uint64_t hi = csr[t + 1];
      if (lo > hi || hi > h.num_items) {
        return Corrupt("transaction offsets are not monotone at txn " +
                       std::to_string(txn));
      }
      if (hi - lo > std::numeric_limits<uint32_t>::max()) {
        return Corrupt("transaction width overflows at txn " +
                       std::to_string(txn));
      }
      max_width = std::max(max_width, static_cast<uint32_t>(hi - lo));
    }
  }
  if (max_width != h.max_width) {
    return Corrupt("max_width mismatch: header records " +
                   std::to_string(h.max_width) + ", data has " +
                   std::to_string(max_width));
  }
  return Status::OK();
}

void StoreReader::AssembleColumns(std::span<const ColumnBlock> blocks,
                                  std::span<const uint64_t>* offsets,
                                  std::span<const ItemId>* items) {
  if (blocks.size() == 1) {
    // A fresh (never appended) store: zero-copy views over the file.
    *offsets = blocks.front().bounds;
    *items = blocks.front().items;
    return;
  }
  // Appended: concatenate into one logical column (each later offsets
  // block repeats its predecessor's last boundary).
  column_offsets_.resize(header_.num_transactions + 1);
  column_items_.resize(header_.num_items);
  uint64_t* next_offset = column_offsets_.data();
  ItemId* next_item = column_items_.data();
  for (size_t b = 0; b < blocks.size(); ++b) {
    const std::span<const uint64_t> bounds =
        blocks[b].bounds.subspan(b == 0 ? 0 : 1);
    std::memcpy(next_offset, bounds.data(), bounds.size_bytes());
    next_offset += bounds.size();
    std::memcpy(next_item, blocks[b].items.data(),
                blocks[b].items.size_bytes());
    next_item += blocks[b].items.size();
  }
  *offsets = column_offsets_;
  *items = column_items_;
}

Status StoreReader::ValidateItems(
    std::span<const ColumnBlock> blocks) const {
  const FileHeader& h = header_;
  // A block passes when its largest item is in range and every
  // unordered pair straddles two transactions; only a failing block
  // is walked transaction by transaction, for the exact message.
  // Blocks run in column order, so the first failing block holds the
  // lowest failing transaction.
  ItemId max_item = 0;
  uint64_t first_txn = 0;
  for (const ColumnBlock& block : blocks) {
    const ItemSummary summary = SummarizeItems(block.items);
    const bool in_range =
        block.items.empty() || summary.max_item < h.alphabet_size;
    if (!in_range || summary.unordered_pairs !=
                         CountUnorderedStarts(block.bounds, block.items)) {
      FLIPPER_RETURN_IF_ERROR(CheckItemsExactly(
          block.bounds, block.items, first_txn, h.alphabet_size));
    }
    max_item = std::max(max_item, summary.max_item);
    first_txn += block.bounds.size() - 1;
  }
  const ItemId actual_alphabet = h.num_items > 0 ? max_item + 1 : 0;
  if (actual_alphabet != h.alphabet_size) {
    return Corrupt("alphabet_size mismatch: header records " +
                   std::to_string(h.alphabet_size) + ", data has " +
                   std::to_string(actual_alphabet));
  }
  return Status::OK();
}

Result<StoreReader> StoreReader::Open(const std::string& path,
                                      const OpenOptions& options) {
  return OpenCommitted(path, options, /*assemble_db=*/true);
}

Result<StoreReader> StoreReader::OpenAppendBase(const std::string& path) {
  return OpenCommitted(path, OpenOptions{}, /*assemble_db=*/false);
}

Result<StoreReader> StoreReader::OpenCommitted(const std::string& path,
                                               const OpenOptions& options,
                                               bool assemble_db) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  MmapFile file;
  FLIPPER_ASSIGN_OR_RETURN(file, MmapFile::Open(path, options.force_heap));
  FLIPPER_ASSIGN_OR_RETURN(
      FileHeader h, ParseHeaderAt(file.data(), file.size(), path));
  if (h.file_size > file.size()) {
    return Corrupt("file size mismatch (truncated?): header records " +
                   std::to_string(h.file_size) + " bytes, file has " +
                   std::to_string(file.size()));
  }
  if (h.file_size < file.size()) {
    return Corrupt(
        "file has " + std::to_string(file.size() - h.file_size) +
        " trailing bytes past the committed store (torn append "
        "session?): header records " + std::to_string(h.file_size) +
        " bytes, file has " + std::to_string(file.size()) +
        " — run `flipper_cli repair` to truncate the torn tail");
  }
  return OpenParsed(std::move(file), h, options, assemble_db, path);
}

Result<StoreReader> StoreReader::OpenPrefix(const std::string& path,
                                            PrefixInfo* info,
                                            const OpenOptions& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  MmapFile file;
  FLIPPER_ASSIGN_OR_RETURN(file, MmapFile::Open(path, options.force_heap));
  const std::byte* base = file.data();
  const uint64_t physical = file.size();

  PrefixInfo local;
  PrefixInfo& out = info != nullptr ? *info : local;
  out = PrefixInfo{};
  out.physical_size = physical;

  const Result<FileHeader> front = ParseHeaderAt(base, physical, path);

  // A commit trailer ends with a header copy whose file_size equals
  // the physical size — self-validating, so a partial trailer (or the
  // tail of an ordinary fresh store) never masquerades as one.
  bool tail_valid = false;
  FileHeader tail;
  if (physical >= sizeof(FileHeader)) {
    const Result<FileHeader> t = ParseHeaderAt(
        base + (physical - sizeof(FileHeader)), sizeof(FileHeader), path);
    if (t.ok() && t->file_size == physical) {
      tail = *t;
      tail_valid = true;
    }
  }

  if (tail_valid) {
    const bool front_matches =
        front.ok() &&
        std::memcmp(base, base + (physical - sizeof(FileHeader)),
                    sizeof(FileHeader)) == 0;
    out.committed_size = physical;
    out.committed_header = tail;
    if (front_matches) {
      out.recovery = PrefixInfo::Recovery::kClean;
      out.detail = "front header and commit trailer agree";
    } else {
      // The commit point was reached; only the front-header rewrite is
      // missing (or tore). Redo it from the trailer.
      out.recovery = PrefixInfo::Recovery::kRewriteFrontHeader;
      out.detail = front.ok()
                       ? "front header is stale (crash between the "
                         "commit trailer and the front-header rewrite)"
                       : "front header is torn but the commit trailer "
                         "is intact";
    }
    return OpenParsed(std::move(file), tail, options, /*assemble_db=*/true,
                      path);
  }

  if (front.ok()) {
    const FileHeader& h = *front;
    out.committed_size = h.file_size;
    out.committed_header = h;
    if (h.file_size == physical) {
      out.recovery = PrefixInfo::Recovery::kClean;
      out.detail = "header spans the file exactly";
      return OpenParsed(std::move(file), h, options, /*assemble_db=*/true,
                        path);
    }
    if (h.file_size < physical) {
      out.recovery = PrefixInfo::Recovery::kTruncateTail;
      out.detail = std::to_string(physical - h.file_size) +
                   " torn bytes past the committed store "
                   "(crashed append session)";
      return OpenParsed(std::move(file), h, options, /*assemble_db=*/true,
                        path);
    }
    out.committed_size = 0;
    return Corrupt("header records " + std::to_string(h.file_size) +
                   " bytes but the file holds only " +
                   std::to_string(physical) +
                   " — the committed data itself is incomplete: " + path);
  }

  return Status(front.status().code(),
                "no committed state found (front header: " +
                    front.status().message() +
                    "; no valid commit trailer)");
}

Result<StoreReader> StoreReader::OpenParsed(MmapFile file,
                                            const FileHeader& header,
                                            const OpenOptions& options,
                                            bool assemble_db,
                                            const std::string& path) {
  StoreReader reader;
  reader.file_ = std::move(file);
  reader.header_ = header;
  const std::byte* base = reader.file_.data();
  const FileHeader& h = reader.header_;
  // Everything the header describes must live inside [0, limit);
  // OpenPrefix may map torn bytes past it.
  const uint64_t limit = h.file_size;

  if (h.num_transactions >
      static_cast<uint64_t>(std::numeric_limits<TxnId>::max())) {
    return Corrupt("transaction count exceeds the TxnId range");
  }

  // --- Section table. ---
  if (h.section_count < kNumSectionsV1) {
    return Corrupt("version-1 files carry at least " +
                   std::to_string(kNumSectionsV1) + " sections, found " +
                   std::to_string(h.section_count));
  }
  if (h.section_count > kMaxSectionCount) {
    return Corrupt("section count " + std::to_string(h.section_count) +
                   " is implausibly large");
  }
  const uint64_t table_bytes =
      uint64_t{h.section_count} * sizeof(SectionEntry);
  const uint64_t table_offset =
      h.table_offset == 0 ? sizeof(FileHeader) : h.table_offset;
  if (table_offset % kSectionAlignment != 0 ||
      table_offset < sizeof(FileHeader) || table_offset > limit) {
    return Corrupt("section table offset " +
                   std::to_string(h.table_offset) + " is invalid");
  }
  if (limit - table_offset < table_bytes) {
    return Corrupt("truncated section table");
  }
  reader.sections_.resize(h.section_count);
  std::memcpy(reader.sections_.data(), base + table_offset, table_bytes);
  if (Fnv1a64(reader.sections_.data(), table_bytes) != h.table_checksum) {
    return Corrupt("section table checksum mismatch");
  }

  // Singleton sections are unique; the two transaction columns may
  // appear as several blocks (one pair per append session).
  const SectionEntry* by_id[kNumSectionsV1] = {};
  std::vector<const SectionEntry*> offsets_blocks;
  std::vector<const SectionEntry*> items_blocks;
  for (const SectionEntry& e : reader.sections_) {
    if (e.id < 1 || e.id > kNumSectionsV1) {
      return Corrupt("unknown section id " + std::to_string(e.id) +
                     " for a version-1 file");
    }
    if (e.offset % kSectionAlignment != 0) {
      return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                     " section is misaligned");
    }
    if (e.offset > limit || limit - e.offset < e.size) {
      return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                     " section extends past end of file");
    }
    const bool column =
        e.id == static_cast<uint32_t>(SectionId::kTxnOffsets) ||
        e.id == static_cast<uint32_t>(SectionId::kTxnItems);
    if (column) {
      (e.id == static_cast<uint32_t>(SectionId::kTxnOffsets)
           ? offsets_blocks
           : items_blocks)
          .push_back(&e);
      continue;
    }
    if (by_id[e.id - 1] != nullptr) {
      return Corrupt(std::string("duplicate section ") +
                     SectionIdName(SectionId(e.id)));
    }
    by_id[e.id - 1] = &e;
  }
  for (uint32_t id = static_cast<uint32_t>(SectionId::kSegments);
       id <= kNumSectionsV1; ++id) {
    if (by_id[id - 1] == nullptr) {
      return Corrupt(std::string("missing section ") +
                     SectionIdName(SectionId(id)));
    }
  }
  if (offsets_blocks.empty() ||
      offsets_blocks.size() != items_blocks.size()) {
    return Corrupt("column blocks are unpaired: " +
                   std::to_string(offsets_blocks.size()) +
                   " txn_offsets vs " +
                   std::to_string(items_blocks.size()) +
                   " txn_items blocks");
  }
  const auto section = [&](SectionId id) -> const SectionEntry& {
    return *by_id[static_cast<uint32_t>(id) - 1];
  };

  // --- Element counts against the header (fixed-width sections). ---
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kSegments), h.num_segments + 1,
      sizeof(uint64_t)));
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kDictOffsets), uint64_t{h.dict_size} + 1,
      sizeof(uint64_t)));
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kTaxParents), h.taxonomy_id_space,
      sizeof(uint32_t)));
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kTaxRoots), h.taxonomy_num_roots,
      sizeof(uint32_t)));

  const std::span<const uint64_t> segments =
      U64Span(base, section(SectionId::kSegments));
  const std::span<const uint64_t> name_offsets =
      U64Span(base, section(SectionId::kDictOffsets));
  const SectionEntry& blob_entry = section(SectionId::kDictBlob);
  const std::string_view blob(
      reinterpret_cast<const char*>(base + blob_entry.offset),
      static_cast<size_t>(blob_entry.size));
  const std::span<const uint32_t> parents =
      U32Span(base, section(SectionId::kTaxParents));
  const std::span<const uint32_t> roots =
      U32Span(base, section(SectionId::kTaxRoots));

  // --- Cheap structural validation (always on). ---
  if (h.alphabet_size > h.dict_size) {
    return Corrupt("alphabet_size " + std::to_string(h.alphabet_size) +
                   " exceeds dictionary size " +
                   std::to_string(h.dict_size));
  }
  if (h.taxonomy_id_space > h.dict_size) {
    return Corrupt("taxonomy id space " +
                   std::to_string(h.taxonomy_id_space) +
                   " exceeds dictionary size " +
                   std::to_string(h.dict_size));
  }
  if (name_offsets.front() != 0 || name_offsets.back() != blob.size()) {
    return Corrupt("dictionary offsets do not span the name blob");
  }
  for (size_t i = 0; i + 1 < name_offsets.size(); ++i) {
    if (name_offsets[i] > name_offsets[i + 1]) {
      return Corrupt("dictionary offsets are not monotone");
    }
  }
  if (segments.front() != 0 || segments.back() != h.num_transactions) {
    return Corrupt("segment boundaries do not span the transactions");
  }
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i] >= segments[i + 1]) {
      return Corrupt("segment boundaries are not strictly increasing");
    }
  }
  for (const uint32_t parent : parents) {
    if (parent != kInvalidItem && parent >= h.taxonomy_id_space) {
      return Corrupt("taxonomy parent id out of range");
    }
  }
  for (const uint32_t root : roots) {
    if (root >= h.taxonomy_id_space) {
      return Corrupt("taxonomy root id out of range");
    }
  }
  reader.segments_ = segments;

  // --- The transaction columns. ---
  std::vector<ColumnBlock> blocks;
  FLIPPER_RETURN_IF_ERROR(
      reader.CheckColumns(base, offsets_blocks, items_blocks, &blocks));
  if (options.validate) {
    FLIPPER_RETURN_IF_ERROR(reader.ValidateItems(blocks));
  }

  // --- Reconstruct the taxonomy (canonical: children end up sorted,
  // independent of original edge declaration order). ---
  if (!roots.empty()) {
    TaxonomyBuilder builder;
    for (const uint32_t root : roots) builder.AddRoot(root);
    for (uint32_t id = 0; id < parents.size(); ++id) {
      if (parents[id] != kInvalidItem) {
        Status added = builder.AddEdge(parents[id], id);
        if (!added.ok()) {
          return Corrupt("taxonomy rebuild failed: " + added.message());
        }
      }
    }
    auto built = builder.Build();
    if (!built.ok()) {
      return Corrupt("taxonomy rebuild failed: " +
                     built.status().message());
    }
    reader.taxonomy_ = std::move(built).value();
  } else if (h.taxonomy_id_space != 0) {
    return Corrupt("taxonomy has nodes but no roots");
  }

  // --- Borrowed views over the mapping / column buffers. ---
  reader.dict_ = ItemDictionary::FromBorrowed(name_offsets, blob);
  if (assemble_db) {
    std::span<const uint64_t> offsets;
    std::span<const ItemId> items;
    reader.AssembleColumns(blocks, &offsets, &items);
    reader.db_ = TransactionDb::FromBorrowed(
        offsets, items, h.alphabet_size, h.max_width);
  }
  return reader;
}

Status StoreReader::VerifyChecksums() const {
  const std::byte* base = file_.data();
  for (const SectionEntry& e : sections_) {
    if (Fnv1a64(base + e.offset, static_cast<size_t>(e.size)) !=
        e.checksum) {
      return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                     " section checksum mismatch");
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace flipper
