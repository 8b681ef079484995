// FlipperStore on-disk format (.fdb): a single versioned binary file
// holding a complete mining input — the CSR transaction database, the
// item-name dictionary, and the taxonomy — so datasets load in O(mmap).
//
// Layout (all integers little-endian, fixed width unless marked):
//
//   [FileHeader]      104 bytes, checksummed (FNV-1a 64)
//   [SectionTable]    section_count x SectionEntry (32 bytes each),
//                     located by header.table_offset (0 = directly
//                     after the header — every fresh file; appended
//                     files keep theirs in the commit trailer)
//   [section payloads ...]  each 8-byte aligned, padded with zeros
//
// Version 1 — the layout this build writes (fresh files, append
// sessions and `convert` output). A fresh file holds exactly these
// seven sections, in any physical order (the table records where each
// one lives):
//
//   kTxnOffsets   (num_transactions + 1) x u64   CSR boundaries
//   kTxnItems     num_items x u32                flattened sorted items
//   kSegments     (num_segments + 1) x u64       shard txn boundaries
//   kDictOffsets  (dict_size + 1) x u64          byte offsets into blob
//   kDictBlob     raw bytes                      concatenated names
//   kTaxParents   taxonomy_id_space x u32        parent per id
//   kTaxRoots     taxonomy_num_roots x u32       level-1 node ids
//
// Both columns are raw, so a single-block file opens as zero-copy
// views over the mapping.
//
// Version 2 — legacy, read-only. Older builds wrote it; this build
// still reads and validates it, but never writes or appends to it
// (`flipper_cli convert --from-fdb` upgrades it to v1). It keeps the
// container and the dictionary/taxonomy/segments sections, but
// compresses the two columns and adds a segment catalog:
//
//   kTxnOffsets   num_transactions varints       per-txn width (delta
//                                                of the CSR boundary)
//   kTxnItems     per txn: varint first item,    sorted items as gaps
//                 then varint gaps (>= 1)
//   kSegCatalog   fixed-width catalog (below)    per-segment item metadata
//
// kSegCatalog payload:
//
//   u32 tracked_count K      top-frequency items with exact per-segment
//   u32 bitset_words  W      supports; W 64-bit bitset words per segment
//   K x u32 tracked item ids (global frequency desc, id asc)
//   num_segments x { u32 min_item; u32 max_item;
//                    W x u64 bits; K x u32 tracked supports }
//
// Segments partition the transactions into contiguous shards (the
// writer cuts one every Options::segment_txns transactions) so
// sharded scans can split the file without touching the offsets
// section.
//
// Append sessions (v1): StoreWriter::OpenAppend extends a committed v1
// store without rewriting it. Each session appends, past the committed
// end of the file,
//
//   [new kTxnItems block]     the session's items, raw u32
//   [new kTxnOffsets block]   (session txns + 1) x u64 absolute CSR
//                             boundaries: its first value is the last
//                             value of the previous offsets block
//   [kSegments, kDictOffsets, kDictBlob, kTaxParents, kTaxRoots]
//                             small sections, rewritten in full
//   [commit trailer]          section table + FileHeader copy (below)
//
// so an appended store carries one kTxnOffsets/kTxnItems block pair
// per session. The k-th offsets block pairs with the k-th items block
// (section-table order); each pair ends on a transaction boundary
// (items block length == last - first offset of its offsets block),
// and readers concatenate the blocks, dropping each later offsets
// block's repeated first value, into one logical column. section_count
// therefore grows by 2 per session: 5 singletons plus equally many
// offsets and items blocks. Legacy v2 files used the same block-pair
// rule with varint blocks (6 singletons, the catalog included). The
// superseded copies of the small sections become dead bytes
// (reclaimed by `flipper_cli convert --from-fdb`, which compacts).
//
// Commit protocol: the trailer is [section table][FileHeader] with
// header.table_offset pointing at that trailing table and
// header.file_size covering the whole file, so the header copy sits
// exactly at file_size - 104 and is self-validating (magic + checksum
// + file_size == physical size). The writer fsyncs the data, fsyncs
// the trailer (THE commit point), and only then rewrites the header at
// offset 0 with the same bytes. A crash at any byte offset leaves
// either (a) a torn tail after a valid front header — recovery
// truncates to the front header's file_size — or (b) a valid trailer
// with a stale/torn front header — recovery rewrites the front header
// from the trailer. Either way the last committed state survives
// byte-exactly; `flipper_cli repair` applies exactly these two rules.
//
// Versioning rules: readers accept exactly the versions they know
// (currently 1 and 2); any other layout or semantic change bumps the
// version. Reserved fields are written as zero and ignored on read, so
// compatible additions can reuse them without a bump. Appends reuse
// one such field (table_offset) and grow section_count without a
// bump: readers that predate them reject an appended file on its
// section_count (v1 readers required exactly 7), never misread it.

#ifndef FLIPPER_STORAGE_FORMAT_H_
#define FLIPPER_STORAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace flipper {
namespace storage {

inline constexpr char kMagic[8] = {'F', 'L', 'I', 'P', 'F', 'D', 'B', '\0'};
inline constexpr uint32_t kFormatVersionV1 = 1;
/// Legacy: read, validated and upgraded, never written.
inline constexpr uint32_t kFormatVersionV2 = 2;
inline constexpr uint64_t kSectionAlignment = 8;
/// Upper bound on the per-segment catalog bitset (64-bit words) of a
/// v2 file; larger values are corruption.
inline constexpr uint32_t kMaxCatalogBitsetWords = 1024;

enum class SectionId : uint32_t {
  kTxnOffsets = 1,
  kTxnItems = 2,
  kSegments = 3,
  kDictOffsets = 4,
  kDictBlob = 5,
  kTaxParents = 6,
  kTaxRoots = 7,
  kSegCatalog = 8,  // v2 only
};

inline constexpr uint32_t kNumSectionsV1 = 7;
inline constexpr uint32_t kNumSectionsV2 = 8;

/// Section count a fresh file of `version` carries (0 for unknown
/// versions). Appended files hold more: each append session adds one
/// kTxnOffsets and one kTxnItems block.
inline constexpr uint32_t SectionCountForVersion(uint32_t version) {
  if (version == kFormatVersionV1) return kNumSectionsV1;
  if (version == kFormatVersionV2) return kNumSectionsV2;
  return 0;
}

/// Sanity bound on section_count before the reader sizes its table
/// buffer (2 blocks per append session: this admits ~32k sessions).
inline constexpr uint32_t kMaxSectionCount = 1u << 16;

/// Human-readable section name ("txn_offsets", ...); "unknown" for ids
/// outside the known set.
const char* SectionIdName(SectionId id);

#pragma pack(push, 1)

/// One row of the section table.
struct SectionEntry {
  uint32_t id = 0;        // SectionId
  uint32_t reserved = 0;  // zero
  uint64_t offset = 0;    // absolute byte offset, 8-aligned
  uint64_t size = 0;      // payload bytes (excluding padding)
  uint64_t checksum = 0;  // FNV-1a 64 of the payload bytes
};
static_assert(sizeof(SectionEntry) == 32);

struct FileHeader {
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint64_t file_size = 0;  // total bytes; guards against truncation
  uint64_t num_transactions = 0;
  uint64_t num_items = 0;     // total flattened items (logical count,
                              // not encoded bytes)
  uint64_t num_segments = 0;  // shard count (>= 1 unless empty)
  uint32_t alphabet_size = 0;
  uint32_t max_width = 0;
  uint32_t dict_size = 0;          // number of interned names
  uint32_t taxonomy_id_space = 0;  // length of the parent array
  uint32_t taxonomy_num_roots = 0;
  uint32_t flags = 0;  // reserved, zero
  /// Absolute byte offset of the section table; 0 means "immediately
  /// after this header" (the only layout fresh files use, so their
  /// bytes are unchanged from when this field was reserved).
  /// Append sessions point it at the commit trailer near the end of
  /// the file.
  uint64_t table_offset = 0;
  uint64_t reserved = 0;        // zero
  uint64_t table_checksum = 0;  // FNV-1a 64 of the section table bytes
  uint64_t header_checksum = 0;  // FNV-1a 64 of this struct with
                                 // header_checksum itself zeroed
};
static_assert(sizeof(FileHeader) == 104);

/// Fixed-width prefix of the kSegCatalog payload.
struct SegCatalogHeader {
  uint32_t tracked_count = 0;  // K
  uint32_t bitset_words = 0;   // W (64-bit words per segment)
};
static_assert(sizeof(SegCatalogHeader) == 8);

#pragma pack(pop)

/// Bytes of one per-segment catalog record for K tracked items and W
/// bitset words: min/max + bitset + tracked supports.
inline constexpr uint64_t SegCatalogRecordBytes(uint64_t tracked_count,
                                                uint64_t bitset_words) {
  return 2 * sizeof(uint32_t) + bitset_words * sizeof(uint64_t) +
         tracked_count * sizeof(uint32_t);
}

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64. Pass a previous return value as `state` to checksum data
/// arriving in chunks.
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t state = kFnvOffsetBasis);

/// Checksum of a header with its `header_checksum` field zeroed.
uint64_t HeaderChecksum(const FileHeader& header);

/// `n` rounded up to the section alignment.
inline constexpr uint64_t AlignUp(uint64_t n) {
  return (n + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

}  // namespace storage
}  // namespace flipper

#endif  // FLIPPER_STORAGE_FORMAT_H_
