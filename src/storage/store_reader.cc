#include "storage/store_reader.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "storage/varint.h"
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
        " (this build reads versions " +
        std::to_string(kFormatVersionV1) + " and " +
        std::to_string(kFormatVersionV2) + "): " + path);
  }
  if (HeaderChecksum(h) != h.header_checksum) {
    return Corrupt("header checksum mismatch: " + path);
  }
  return h;
}

/// Sequential varint reader over a chain of column blocks (table
/// order). Blocks end on transaction boundaries, so a varint that
/// would straddle two blocks is corruption and decodes as truncated.
class BlockCursor {
 public:
  BlockCursor(const std::byte* base,
              std::span<const SectionEntry* const> blocks)
      : base_(base), blocks_(blocks) {}

  bool Get(uint64_t* value) {
    SkipExhausted();
    return GetVarint(&pos_, end_, value);
  }

  /// True when every block's bytes have been consumed.
  bool Exhausted() {
    SkipExhausted();
    return pos_ == end_;
  }

 private:
  void SkipExhausted() {
    while (pos_ == end_ && idx_ < blocks_.size()) {
      const SectionEntry& e = *blocks_[idx_++];
      pos_ = reinterpret_cast<const uint8_t*>(base_ + e.offset);
      end_ = pos_ + e.size;
    }
  }

  const std::byte* base_;
  std::span<const SectionEntry* const> blocks_;
  size_t idx_ = 0;
  const uint8_t* pos_ = nullptr;
  const uint8_t* end_ = nullptr;
};

/// Items per chunk of SummarizeItems' inner loop.
constexpr size_t kSummaryChunk = 64;

/// The branch-free part of the v1 item check.
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
/// passed CheckColumnsV1.
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

Status StoreReader::CheckColumnsV1(
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

void StoreReader::AssembleColumnsV1(std::span<const ColumnBlock> blocks,
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

Status StoreReader::ValidateItemsV1(
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

Status StoreReader::DecodeColumnsV2(
    const std::byte* base,
    std::span<const SectionEntry* const> offsets_blocks,
    std::span<const SectionEntry* const> items_blocks) {
  const FileHeader& h = header_;

  // Every varint occupies at least one byte, so the header counts are
  // bounded by the section sizes. Checking first keeps the reserve()
  // calls below from ballooning on a corrupt header (allocation
  // failure would escape as bad_alloc, not a Status).
  uint64_t offsets_bytes = 0;
  for (const SectionEntry* e : offsets_blocks) offsets_bytes += e->size;
  uint64_t items_bytes = 0;
  for (const SectionEntry* e : items_blocks) items_bytes += e->size;
  if (h.num_transactions > offsets_bytes) {
    return Corrupt("txn_offsets section is too small for " +
                   std::to_string(h.num_transactions) + " transactions");
  }
  if (h.num_items > items_bytes) {
    return Corrupt("txn_items section is too small for " +
                   std::to_string(h.num_items) + " items");
  }

  // --- Widths column -> CSR offsets. ---
  column_offsets_.clear();
  column_offsets_.reserve(h.num_transactions + 1);
  column_offsets_.push_back(0);
  {
    BlockCursor cursor(base, offsets_blocks);
    uint32_t max_width = 0;
    for (uint64_t t = 0; t < h.num_transactions; ++t) {
      uint64_t width = 0;
      if (!cursor.Get(&width)) {
        return Corrupt("truncated varint in txn_offsets at txn " +
                       std::to_string(t));
      }
      if (width > std::numeric_limits<uint32_t>::max()) {
        return Corrupt("transaction width overflows at txn " +
                       std::to_string(t));
      }
      column_offsets_.push_back(column_offsets_.back() + width);
      max_width = std::max(max_width, static_cast<uint32_t>(width));
    }
    if (!cursor.Exhausted()) {
      return Corrupt("txn_offsets section has trailing bytes");
    }
    if (column_offsets_.back() != h.num_items) {
      return Corrupt("transaction offsets do not span the items");
    }
    if (max_width != h.max_width) {
      return Corrupt("max_width mismatch: header records " +
                     std::to_string(h.max_width) + ", data has " +
                     std::to_string(max_width));
    }
  }

  // --- Delta-encoded items column. ---
  column_items_.clear();
  column_items_.reserve(h.num_items);
  {
    BlockCursor cursor(base, items_blocks);
    uint64_t max_item = 0;
    bool any_item = false;
    for (uint64_t t = 0; t < h.num_transactions; ++t) {
      const uint64_t width =
          column_offsets_[t + 1] - column_offsets_[t];
      uint64_t item = 0;
      for (uint64_t i = 0; i < width; ++i) {
        uint64_t delta = 0;
        if (!cursor.Get(&delta)) {
          return Corrupt("truncated varint in txn_items at txn " +
                         std::to_string(t));
        }
        if (i == 0) {
          item = delta;
        } else {
          if (delta == 0) {
            return Corrupt("items of txn " + std::to_string(t) +
                           " are not sorted and duplicate-free");
          }
          // In-range items make every true gap < alphabet_size; a
          // larger delta is either out of range or a 64-bit wraparound
          // crafted to decode as an unsorted transaction — reject it
          // before the addition can wrap.
          if (delta >= h.alphabet_size) {
            return Corrupt("item gap " + std::to_string(delta) +
                           " out of range in txn " + std::to_string(t));
          }
          item += delta;
        }
        if (item >= h.alphabet_size) {
          return Corrupt("item id " + std::to_string(item) +
                         " out of range in txn " + std::to_string(t));
        }
        column_items_.push_back(static_cast<ItemId>(item));
        max_item = std::max(max_item, item);
        any_item = true;
      }
    }
    if (!cursor.Exhausted()) {
      return Corrupt("txn_items section has trailing bytes");
    }
    const uint64_t actual_alphabet = any_item ? max_item + 1 : 0;
    if (actual_alphabet != h.alphabet_size) {
      return Corrupt("alphabet_size mismatch: header records " +
                     std::to_string(h.alphabet_size) + ", data has " +
                     std::to_string(actual_alphabet));
    }
  }
  return Status::OK();
}

Status StoreReader::DecodeCatalogV2(const std::byte* base,
                                    const SectionEntry& entry,
                                    bool validate) {
  const FileHeader& h = header_;
  if (entry.size < sizeof(SegCatalogHeader)) {
    return Corrupt("seg_catalog section is too small for its header");
  }
  SegCatalogHeader ch;
  std::memcpy(&ch, base + entry.offset, sizeof(ch));
  if (ch.bitset_words == 0 || ch.bitset_words > kMaxCatalogBitsetWords) {
    return Corrupt("seg_catalog bitset length is invalid (" +
                   std::to_string(ch.bitset_words) + " words)");
  }
  if (ch.tracked_count > h.alphabet_size) {
    return Corrupt("seg_catalog tracks more items than the alphabet");
  }
  const uint64_t expected =
      sizeof(SegCatalogHeader) +
      uint64_t{ch.tracked_count} * sizeof(uint32_t) +
      h.num_segments *
          SegCatalogRecordBytes(ch.tracked_count, ch.bitset_words);
  if (entry.size != expected) {
    return Corrupt(
        "seg_catalog section holds " + std::to_string(entry.size) +
        " bytes, expected " + std::to_string(expected) + " for " +
        std::to_string(h.num_segments) + " segments (bitset/tracked "
        "length mismatch?)");
  }

  const auto* cursor = reinterpret_cast<const uint8_t*>(
      base + entry.offset + sizeof(SegCatalogHeader));
  const auto read_u32 = [&cursor]() {
    uint32_t v;
    std::memcpy(&v, cursor, sizeof(v));
    cursor += sizeof(v);
    return v;
  };
  const auto read_u64 = [&cursor]() {
    uint64_t v;
    std::memcpy(&v, cursor, sizeof(v));
    cursor += sizeof(v);
    return v;
  };

  std::vector<ItemId> tracked_ids(ch.tracked_count);
  for (uint32_t i = 0; i < ch.tracked_count; ++i) {
    tracked_ids[i] = read_u32();
    if (tracked_ids[i] >= h.alphabet_size) {
      return Corrupt("seg_catalog tracked item id out of range");
    }
  }

  std::vector<ItemId> min_item(h.num_segments);
  std::vector<ItemId> max_item(h.num_segments);
  std::vector<uint64_t> bits;
  bits.reserve(h.num_segments * ch.bitset_words);
  std::vector<uint32_t> tracked_supports;
  tracked_supports.reserve(h.num_segments * ch.tracked_count);
  for (uint64_t seg = 0; seg < h.num_segments; ++seg) {
    min_item[seg] = read_u32();
    max_item[seg] = read_u32();
    const bool empty_segment =
        min_item[seg] == kInvalidItem && max_item[seg] == 0;
    if (!empty_segment &&
        (min_item[seg] > max_item[seg] ||
         max_item[seg] >= h.alphabet_size)) {
      return Corrupt("seg_catalog segment " + std::to_string(seg) +
                     " has out-of-range item bounds");
    }
    for (uint32_t w = 0; w < ch.bitset_words; ++w) {
      bits.push_back(read_u64());
    }
    const uint64_t seg_txns = segments_[seg + 1] - segments_[seg];
    for (uint32_t i = 0; i < ch.tracked_count; ++i) {
      const uint32_t support = read_u32();
      if (support > seg_txns) {
        return Corrupt("seg_catalog segment " + std::to_string(seg) +
                       " records a support above its size");
      }
      tracked_supports.push_back(support);
    }
  }

  auto catalog = std::make_shared<SegmentCatalog>(SegmentCatalog::FromParts(
      std::vector<uint64_t>(segments_.begin(), segments_.end()),
      ch.bitset_words, std::move(tracked_ids), std::move(min_item),
      std::move(max_item), std::move(bits),
      std::move(tracked_supports)));

  if (validate) {
    // Rebuild the catalog from the decoded transactions; any
    // disagreement means the section misdescribes the payload, so it
    // is rejected outright. (Bitwise equality
    // holds because writer and rebuild share the top-K selection and
    // the bit hash.)
    const SegmentCatalog reference = SegmentCatalog::Build(
        db_, std::vector<uint64_t>(segments_.begin(), segments_.end()),
        ch.tracked_count, ch.bitset_words);
    const auto mismatch = [&](const std::string& what) {
      return Corrupt("seg_catalog disagrees with the items column (" +
                     what + ")");
    };
    if (!std::equal(reference.tracked_ids().begin(),
                    reference.tracked_ids().end(),
                    catalog->tracked_ids().begin(),
                    catalog->tracked_ids().end())) {
      return mismatch("tracked items");
    }
    for (size_t seg = 0; seg < catalog->num_segments(); ++seg) {
      if (catalog->min_item(seg) != reference.min_item(seg) ||
          catalog->max_item(seg) != reference.max_item(seg)) {
        return mismatch("segment item bounds");
      }
      const auto a = catalog->segment_bits(seg);
      const auto b = reference.segment_bits(seg);
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
        return mismatch("segment bitsets");
      }
      const auto sa = catalog->segment_tracked_supports(seg);
      const auto sb = reference.segment_tracked_supports(seg);
      if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) {
        return mismatch("tracked supports");
      }
    }
  }

  catalog_ = std::move(catalog);
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
  const bool v2 = h.version == kFormatVersionV2;

  // --- Section table. ---
  const uint32_t fresh_sections = SectionCountForVersion(h.version);
  if (h.section_count < fresh_sections) {
    return Corrupt("version-" + std::to_string(h.version) +
                   " files carry at least " +
                   std::to_string(fresh_sections) + " sections, found " +
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
  const uint32_t max_id = v2 ? kNumSectionsV2 : kNumSectionsV1;
  const SectionEntry* by_id[kNumSectionsV2] = {};
  std::vector<const SectionEntry*> offsets_blocks;
  std::vector<const SectionEntry*> items_blocks;
  for (const SectionEntry& e : reader.sections_) {
    if (e.id < 1 || e.id > max_id) {
      return Corrupt("unknown section id " + std::to_string(e.id) +
                     " for a version-" + std::to_string(h.version) +
                     " file");
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
       id <= max_id; ++id) {
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
  std::span<const uint64_t> offsets;
  std::span<const ItemId> items;
  if (!v2) {
    std::vector<ColumnBlock> blocks;
    FLIPPER_RETURN_IF_ERROR(reader.CheckColumnsV1(base, offsets_blocks,
                                                  items_blocks, &blocks));
    if (options.validate) {
      FLIPPER_RETURN_IF_ERROR(reader.ValidateItemsV1(blocks));
    }
    if (assemble_db) reader.AssembleColumnsV1(blocks, &offsets, &items);
  } else {
    FLIPPER_RETURN_IF_ERROR(
        reader.DecodeColumnsV2(base, offsets_blocks, items_blocks));
    offsets = reader.column_offsets_;
    items = reader.column_items_;
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

  // --- Borrowed views over the mapping / decode buffers. ---
  reader.dict_ = ItemDictionary::FromBorrowed(name_offsets, blob);
  if (assemble_db || v2) {  // v2 columns are always decoded
    reader.db_ = TransactionDb::FromBorrowed(
        offsets, items, h.alphabet_size, h.max_width);
  }

  // --- The v2 segment catalog (validated against the decoded items,
  // then attached to the database). ---
  if (v2) {
    FLIPPER_RETURN_IF_ERROR(reader.DecodeCatalogV2(
        base, section(SectionId::kSegCatalog), options.validate));
    reader.db_.AttachSegmentCatalog(reader.catalog_);
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
