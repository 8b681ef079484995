// StoreWriter: streams a mining input into a .fdb FlipperStore file,
// always in the raw version-1 layout (format.h).
//
// Transactions are appended one at a time and their items flow
// straight to disk as raw u32, so a generator can emit datasets larger
// than RAM without ever building a full TransactionDb in memory; only
// the session's CSR offsets (8 bytes per transaction) and the segment
// boundaries are buffered until Finish(). The dictionary and taxonomy
// are written at Finish() so callers may keep interning names while
// appending.
//
// Durability. All disk traffic goes through storage/file_io.h.
// Create() writes to `path + ".tmp"` and only renames over `path`
// after a successful fsync, so a crashed fresh write never leaves a
// half-written store at the final path; failed writers remove their
// temp file (on error or on destruction). OpenAppend() extends an
// existing v1 store in place with the commit protocol described in
// format.h: one new column block pair strictly after the committed
// bytes, a trailing section-table + header as the commit record, the
// front header rewritten last. A crash mid-append leaves the base
// store intact (torn tails are removed by `flipper_cli repair`); a
// failed append session truncates back to the base store before
// returning. An append session writes O(batch) bytes and never
// rewrites the committed columns. It validates its base like a
// validated StoreReader::Open, but checks every column block in place
// and copies no committed bytes. Reads stay O(store) by design: a base
// must pass validation before it is extended.

#ifndef FLIPPER_STORAGE_STORE_WRITER_H_
#define FLIPPER_STORAGE_STORE_WRITER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/item_dictionary.h"
#include "data/transaction_db.h"
#include "storage/file_io.h"
#include "storage/format.h"
#include "taxonomy/taxonomy.h"

namespace flipper {
namespace storage {

class StoreWriter {
 public:
  struct Options {
    /// Transactions per shard segment. Segments partition the file for
    /// sharded scans (static range splits).
    uint32_t segment_txns = 1u << 16;
  };

  /// Starts a fresh store: writes to `path + ".tmp"` and atomically
  /// renames onto `path` when Finish() commits. `fs` null = the real
  /// filesystem.
  static Result<StoreWriter> Create(const std::string& path,
                                    const Options& options,
                                    FileSystem* fs = nullptr);
  static Result<StoreWriter> Create(const std::string& path) {
    return Create(path, Options());
  }

  /// Starts an append session on an existing, fully committed
  /// version-1 store (legacy v2 stores are read-only; a torn file must
  /// be repaired first — this validates like StoreReader::Open, and
  /// its error suggests `flipper_cli repair` only when repair can
  /// restore the file).
  /// Appended transactions go into new segments (existing segments
  /// are immutable) cut at the base store's segment size, its widest
  /// segment; Finish() commits them with the crash-safe trailer
  /// protocol, and the dictionary/taxonomy passed to Finish() may only
  /// *extend* the ones already on disk.
  static Result<StoreWriter> OpenAppend(const std::string& path,
                                        FileSystem* fs = nullptr);

  /// Abandons an unfinished session: removes the temp file (fresh) or
  /// truncates back to the base store (append). No-op after Finish().
  ~StoreWriter();

  StoreWriter(StoreWriter&&) = default;
  StoreWriter& operator=(StoreWriter&&) = default;
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Appends one transaction; items are copied, sorted and deduped
  /// (TransactionDb::Add semantics). Invalid after Finish(); after an
  /// error the writer has cleaned up and refuses further use.
  Status Append(std::span<const ItemId> items);

  /// Commits: writes the remaining sections plus the final checksummed
  /// header, fsyncs, and (fresh mode) renames the temp file into
  /// place. `dict` must name every appended item and every taxonomy
  /// node. Call exactly once.
  Status Finish(const ItemDictionary& dict, const Taxonomy& taxonomy);

  uint64_t num_transactions() const {
    return base_txns_ + appended_transactions();
  }
  uint64_t num_items() const { return offsets_.back(); }
  /// Transactions added by this session (== num_transactions() for a
  /// fresh writer).
  uint64_t appended_transactions() const { return offsets_.size() - 1; }

 private:
  StoreWriter() = default;

  Status AppendImpl(std::span<const ItemId> items);
  Status FinishImpl(const ItemDictionary& dict, const Taxonomy& taxonomy);
  /// Best-effort cleanup of an unfinished session (see ~StoreWriter).
  void Abandon();

  /// Appends raw bytes to the file, folding them into `checksum`.
  Status WriteBytes(const void* data, size_t size, uint64_t* checksum);
  /// Pads the file to the section alignment.
  Status Pad();
  /// Writes one fully buffered section, appending its table entry to
  /// `table`.
  Status WriteSection(SectionId id, const void* data, size_t size,
                      std::vector<SectionEntry>* table);

  Options options_;
  FileSystem* fs_ = nullptr;
  std::string final_path_;  // the store path
  std::string write_path_;  // temp path (fresh) or final_path_ (append)
  std::unique_ptr<WritableFile> file_;
  uint64_t file_pos_ = 0;
  /// This session's offsets block: absolute CSR boundaries starting at
  /// the base store's item count (0 for a fresh store).
  std::vector<uint64_t> offsets_ = {0};
  std::vector<uint64_t> segments_ = {0};
  std::vector<ItemId> scratch_;
  uint64_t items_checksum_ = kFnvOffsetBasis;
  uint64_t items_start_ = 0;
  ItemId alphabet_size_ = 0;
  uint32_t max_width_ = 0;
  uint32_t txns_in_open_segment_ = 0;
  bool finished_ = false;

  // --- Append-session state (defaults describe a fresh writer). ---
  bool append_mode_ = false;
  /// The commit trailer has been fsynced: the session is durable, so
  /// later failures must not roll the file back (see Finish()).
  bool commit_trailer_durable_ = false;
  uint64_t base_file_size_ = 0;  // committed size to roll back to
  uint64_t base_txns_ = 0;
  std::vector<SectionEntry> base_offsets_blocks_;  // table order
  std::vector<SectionEntry> base_items_blocks_;
  std::vector<std::string> base_names_;   // dictionary prefix to honor
  std::vector<ItemId> base_parents_;      // taxonomy prefix to honor
  std::vector<ItemId> base_roots_;
};

/// Convenience wrapper: streams an in-memory database into `path`.
Status WriteStoreFile(const std::string& path, const TransactionDb& db,
                      const ItemDictionary& dict, const Taxonomy& taxonomy,
                      const StoreWriter::Options& options = {},
                      FileSystem* fs = nullptr);

}  // namespace storage
}  // namespace flipper

#endif  // FLIPPER_STORAGE_STORE_WRITER_H_
