// StoreReader: opens a .fdb FlipperStore file (format.h, version 1 —
// the only version this build reads) and exposes its contents as
// ready-to-mine objects.
//
// Both transaction columns are raw fixed-width arrays. A fresh file
// holds one block per column, and its transaction database and
// dictionary are zero-copy views over the file mapping (borrowed-span
// mode of TransactionDb / ItemDictionary); only the taxonomy — a few
// KB of tree structure — is reconstructed in memory. An appended file
// (StoreWriter::OpenAppend) holds one kTxnOffsets/kTxnItems block pair
// per session. Every check runs on the blocks in place; only then does
// Open() memcpy them, in section-table order, into reader-owned
// buffers (no decode), because db() hands out one span per column.
//
// A file of any other version is refused with InvalidArgument; older
// builds also wrote a version 2, whose files must be regenerated from
// their source files (`flipper_cli convert` or `datagen`).
//
// On platforms without mmap (or with OpenOptions::force_heap) the file
// is read into one aligned heap buffer instead, with identical
// semantics.
//
// For files torn by a crash mid-append, OpenPrefix() recovers the last
// committed state (see PrefixInfo); Open() itself stays strict.
//
// Open() hard-validates the header checksum, the section table, every
// section's bounds, the column block structure and the CSR offsets
// (start at 0, monotone, end at num_items, widths match max_width)
// before handing out a single pointer; with OpenOptions::validate (the
// default) it additionally checks the items so that every item id is
// in-range and sorted within its transaction and the header's derived
// metadata matches the data. The item check is one vectorized pass per
// column block (see ValidateItems). A corrupt or truncated file
// yields a Status error, never UB.

#ifndef FLIPPER_STORAGE_STORE_READER_H_
#define FLIPPER_STORAGE_STORE_READER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/item_dictionary.h"
#include "data/transaction_db.h"
#include "storage/format.h"
#include "storage/mmap_file.h"
#include "taxonomy/taxonomy.h"

namespace flipper {
namespace storage {

/// What StoreReader::OpenPrefix discovered about the physical file —
/// the input to repair (storage/recovery.h).
struct PrefixInfo {
  enum class Recovery {
    kClean,               // committed state == physical file
    kTruncateTail,        // torn append tail after a valid front header
    kRewriteFrontHeader,  // valid commit trailer, stale/torn front header
  };
  Recovery recovery = Recovery::kClean;
  uint64_t physical_size = 0;
  /// file_size of the chosen (committed) header; for kTruncateTail the
  /// bytes past this offset are torn.
  uint64_t committed_size = 0;
  /// The header describing the committed state (for kRewriteFrontHeader
  /// this is the trailer copy repair writes back to offset 0).
  FileHeader committed_header;
  std::string detail;  // human-readable reason for the verdict
};

struct OpenOptions {
  /// Check the items column (O(num_items): one vectorized pass per
  /// column block, about 0.5 ms for the 505k items of the default
  /// quest store on a 4-vCPU x86-64 host) so that every item id is
  /// proven in-range and sorted before use. Disable only for trusted
  /// files (e.g. open-latency benchmarks); structural checks — header
  /// checksum, section table, section bounds, column blocks and CSR
  /// offsets, dictionary offsets, segment boundaries and taxonomy
  /// reconstruction — always run.
  bool validate = true;
  /// Skip mmap and read the file into memory (the portable fallback;
  /// also exercised by tests).
  bool force_heap = false;
};

class StoreReader {
 public:
  static Result<StoreReader> Open(const std::string& path,
                                  const OpenOptions& options = {});

  /// Best-effort open of the last *committed* state of a possibly torn
  /// file: where Open() requires the front header to describe the
  /// whole file byte-for-byte, OpenPrefix also accepts (a) a valid
  /// front header followed by torn trailing bytes — a crashed append
  /// session — and (b) a valid commit trailer whose front header
  /// rewrite never landed. `info` (optional) receives what was found
  /// and which repair action would make Open() succeed; it is filled
  /// whenever a committed header was identified, even if the committed
  /// payload then fails validation and an error is returned. Repair
  /// (storage/recovery.h) is built on this.
  static Result<StoreReader> OpenPrefix(const std::string& path,
                                        PrefixInfo* info,
                                        const OpenOptions& options = {});

  StoreReader(StoreReader&&) = default;
  StoreReader& operator=(StoreReader&&) = default;
  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  /// Borrowed views into the file (a fresh store) or the reader's
  /// column buffers (an appended one); valid while this reader is
  /// alive.
  const TransactionDb& db() const { return db_; }
  const ItemDictionary& dict() const { return dict_; }
  const Taxonomy& taxonomy() const { return taxonomy_; }

  /// Shard boundaries: num_segments + 1 transaction indexes starting
  /// at 0 and ending at num_transactions.
  std::span<const uint64_t> segments() const { return segments_; }

  const FileHeader& header() const { return header_; }
  uint32_t version() const { return header_.version; }
  std::span<const SectionEntry> sections() const { return sections_; }
  bool mapped() const { return file_.mapped(); }
  uint64_t file_size() const { return file_.size(); }

  /// Recomputes every section checksum against the table (full file
  /// scan; `flipper_cli inspect` runs this).
  Status VerifyChecksums() const;

 private:
  StoreReader() = default;

  /// One kTxnOffsets/kTxnItems block pair, in place on the mapping:
  /// absolute CSR boundaries and the items they span.
  struct ColumnBlock {
    std::span<const uint64_t> bounds;
    std::span<const ItemId> items;
  };

  /// StoreWriter::OpenAppend opens its base through this: every check
  /// of a validated Open(), but the columns are checked in place and
  /// never assembled — db() stays empty and no column buffer is
  /// allocated.
  friend class StoreWriter;
  static Result<StoreReader> OpenAppendBase(const std::string& path);

  /// Open() and OpenAppendBase(): a strict open of a committed file.
  static Result<StoreReader> OpenCommitted(const std::string& path,
                                           const OpenOptions& options,
                                           bool assemble_db);

  /// Shared tail of every open: parses and validates everything the
  /// chosen `header` describes. The header's file_size may be smaller
  /// than the mapping (trailing torn bytes are ignored) but never
  /// larger. `assemble_db` false leaves db() empty.
  static Result<StoreReader> OpenParsed(MmapFile file,
                                        const FileHeader& header,
                                        const OpenOptions& options,
                                        bool assemble_db,
                                        const std::string& path);

  /// Checks the column block structure and the CSR offsets (which
  /// TransactionDb::Get trusts, so this runs on trusted opens too) and
  /// lists the blocks in table order.
  Status CheckColumns(const std::byte* base,
                      std::span<const SectionEntry* const> offsets_blocks,
                      std::span<const SectionEntry* const> items_blocks,
                      std::vector<ColumnBlock>* blocks) const;
  /// The OpenOptions::validate check of the items, on the blocks in
  /// place: per block, one branch-free pass takes the largest item and
  /// counts the adjacent pairs that do not ascend; the block passes if
  /// that item is in range and every such pair straddles two
  /// transactions. Only a failing block is walked transaction by
  /// transaction, to report its lowest failing one.
  Status ValidateItems(std::span<const ColumnBlock> blocks) const;
  /// Points `offsets`/`items` at the columns: views over the file
  /// for one block pair, or the blocks concatenated into
  /// column_offsets_/column_items_ (table order) for an appended store.
  void AssembleColumns(std::span<const ColumnBlock> blocks,
                       std::span<const uint64_t>* offsets,
                       std::span<const ItemId>* items);

  MmapFile file_;
  FileHeader header_;
  std::vector<SectionEntry> sections_;
  std::span<const uint64_t> segments_;
  /// Reader-owned columns (an appended store's concatenated blocks);
  /// the db's borrowed spans point into these. Empty for a fresh store.
  std::vector<uint64_t> column_offsets_;
  std::vector<ItemId> column_items_;
  TransactionDb db_;
  ItemDictionary dict_;
  Taxonomy taxonomy_;
};

}  // namespace storage
}  // namespace flipper

#endif  // FLIPPER_STORAGE_STORE_READER_H_
