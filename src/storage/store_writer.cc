#include "storage/store_writer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string_view>

#include "storage/recovery.h"
#include "storage/store_reader.h"

namespace flipper {
namespace storage {
namespace {

/// Fresh stores are staged here and renamed into place on commit.
std::string TempPathFor(const std::string& path) { return path + ".tmp"; }

/// What to do about a base store that failed its open: repair restores
/// a torn tail or a stale front header, but nothing else.
std::string RepairHint(const std::string& path) {
  const Result<RepairPlan> plan = AnalyzeStore(path);
  if (!plan.ok()) return "";
  switch (plan->action) {
    case RepairPlan::Action::kTruncateTail:
    case RepairPlan::Action::kRewriteFrontHeader:
      return " — run `flipper_cli repair " + path +
             "` to restore the last committed state";
    case RepairPlan::Action::kUnrecoverable:
      return plan->committed_size > 0
                 ? " — the committed payload fails validation, so no "
                   "repair can restore it"
                 : " — no committed state survives, so no repair can "
                   "restore it";
    case RepairPlan::Action::kNone:
      break;
  }
  return "";
}

}  // namespace

Result<StoreWriter> StoreWriter::Create(const std::string& path,
                                        const Options& options,
                                        FileSystem* fs) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  if (options.segment_txns == 0) {
    return Status::InvalidArgument("segment_txns must be positive");
  }
  StoreWriter writer;
  writer.options_ = options;
  writer.fs_ = ResolveFileSystem(fs);
  writer.final_path_ = path;
  writer.write_path_ = TempPathFor(path);
  {
    auto opened = writer.fs_->OpenWritable(writer.write_path_,
                                           /*truncate=*/true);
    if (!opened.ok()) return opened.status();
    writer.file_ = std::move(opened).value();
  }
  // Placeholder header + section table; Finish() writes the real ones
  // in place once every section offset is known.
  const std::vector<char> zeros(
      sizeof(FileHeader) + kNumSectionsV1 * sizeof(SectionEntry), 0);
  Status placeholder =
      writer.WriteBytes(zeros.data(), zeros.size(), nullptr);
  if (!placeholder.ok()) {
    writer.Abandon();
    return placeholder;
  }
  writer.items_start_ = writer.file_pos_;
  return writer;
}

Result<StoreWriter> StoreWriter::OpenAppend(const std::string& path,
                                            FileSystem* fs) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  StoreWriter writer;
  writer.fs_ = ResolveFileSystem(fs);
  writer.final_path_ = path;
  writer.write_path_ = path;
  writer.append_mode_ = true;
  {
    // Appending extends a *committed* store, so the base must open
    // under full validation; a torn tail from an earlier crash must be
    // repaired away first. The columns are checked in place: no
    // committed byte is copied.
    auto base = StoreReader::OpenAppendBase(path);
    if (!base.ok()) {
      std::string msg =
          "cannot append to " + path + ": " + base.status().message();
      if (base.status().code() == StatusCode::kCorruptedData) {
        msg += RepairHint(path);
      }
      return Status(base.status().code(), std::move(msg));
    }
    const StoreReader& reader = *base;
    const FileHeader& h = reader.header();
    if (AlignUp(h.file_size) != h.file_size) {
      return Status::Internal(
          "committed store size is not section-aligned: " + path);
    }
    // The base store's segment size: its widest segment (all segments
    // of a session but its last are full-size).
    uint64_t widest = 0;
    const auto segs = reader.segments();
    for (size_t i = 0; i + 1 < segs.size(); ++i) {
      widest = std::max(widest, segs[i + 1] - segs[i]);
    }
    if (widest > 0) {
      writer.options_.segment_txns = static_cast<uint32_t>(
          std::min<uint64_t>(widest, std::numeric_limits<uint32_t>::max()));
    }

    // This session's offsets block continues the committed column.
    writer.offsets_ = {h.num_items};
    writer.segments_.assign(reader.segments().begin(),
                            reader.segments().end());
    writer.alphabet_size_ = h.alphabet_size;
    writer.max_width_ = h.max_width;
    writer.base_txns_ = h.num_transactions;
    writer.base_file_size_ = h.file_size;

    // The committed column blocks stay where they are; the new table
    // will list them (in order) ahead of this session's blocks.
    for (const SectionEntry& e : reader.sections()) {
      if (e.id == static_cast<uint32_t>(SectionId::kTxnOffsets)) {
        writer.base_offsets_blocks_.push_back(e);
      } else if (e.id == static_cast<uint32_t>(SectionId::kTxnItems)) {
        writer.base_items_blocks_.push_back(e);
      }
    }

    // Snapshot the dictionary and taxonomy so Finish() can enforce
    // that the session only extended them (committed ids must keep
    // their meaning). The names are kept as the two committed
    // sections, offsets and blob, not one string per name.
    writer.base_name_offsets_.reserve(uint64_t{h.dict_size} + 1);
    writer.base_name_offsets_.push_back(0);
    for (ItemId id = 0; id < h.dict_size; ++id) {
      writer.base_name_blob_ += reader.dict().Name(id);
      writer.base_name_offsets_.push_back(writer.base_name_blob_.size());
    }
    writer.base_parents_.resize(h.taxonomy_id_space);
    for (size_t id = 0; id < writer.base_parents_.size(); ++id) {
      writer.base_parents_[id] =
          reader.taxonomy().ParentOf(static_cast<ItemId>(id));
    }
    const auto& roots = reader.taxonomy().Level1();
    writer.base_roots_.assign(roots.begin(), roots.end());
  }  // release the base mapping before opening the file for writing

  auto opened = writer.fs_->OpenWritable(path, /*truncate=*/false);
  if (!opened.ok()) return opened.status();
  writer.file_ = std::move(opened).value();
  writer.file_pos_ = writer.base_file_size_;
  writer.items_start_ = writer.base_file_size_;
  return writer;
}

StoreWriter::~StoreWriter() { Abandon(); }

void StoreWriter::Abandon() {
  if (file_ == nullptr) return;
  (void)file_->Close();
  file_.reset();
  // Best effort; under a real crash none of this runs, which is
  // exactly what repair handles.
  if (append_mode_) {
    (void)fs_->Truncate(final_path_, base_file_size_);
  } else {
    (void)fs_->Remove(write_path_);
  }
}

Status StoreWriter::WriteBytes(const void* data, size_t size,
                               uint64_t* checksum) {
  if (size == 0) return Status::OK();
  FLIPPER_RETURN_IF_ERROR(file_->Append(data, size));
  file_pos_ += size;
  if (checksum != nullptr) *checksum = Fnv1a64(data, size, *checksum);
  return Status::OK();
}

Status StoreWriter::Pad() {
  static constexpr char kZeros[kSectionAlignment] = {};
  const uint64_t target = AlignUp(file_pos_);
  if (target > file_pos_) {
    return WriteBytes(kZeros, target - file_pos_, nullptr);
  }
  return Status::OK();
}

Status StoreWriter::WriteSection(SectionId id, const void* data,
                                 size_t size,
                                 std::vector<SectionEntry>* table) {
  SectionEntry entry;
  entry.id = static_cast<uint32_t>(id);
  entry.offset = file_pos_;
  entry.size = size;
  entry.checksum = Fnv1a64(data, size);
  FLIPPER_RETURN_IF_ERROR(WriteBytes(data, size, nullptr));
  FLIPPER_RETURN_IF_ERROR(Pad());
  table->push_back(entry);
  return Status::OK();
}

Status StoreWriter::Append(std::span<const ItemId> items) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition(
        "store writer is no longer usable (a previous operation failed)");
  }
  Status status = AppendImpl(items);
  if (!status.ok()) Abandon();
  return status;
}

Status StoreWriter::AppendImpl(std::span<const ItemId> items) {
  scratch_.assign(items.begin(), items.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  FLIPPER_RETURN_IF_ERROR(WriteBytes(
      scratch_.data(), scratch_.size() * sizeof(ItemId), &items_checksum_));
  offsets_.push_back(offsets_.back() + scratch_.size());
  max_width_ = std::max(max_width_, static_cast<uint32_t>(scratch_.size()));
  if (!scratch_.empty()) {
    alphabet_size_ = std::max(alphabet_size_, scratch_.back() + 1);
  }
  if (++txns_in_open_segment_ == options_.segment_txns) {
    segments_.push_back(num_transactions());
    txns_in_open_segment_ = 0;
  }
  return Status::OK();
}

Status StoreWriter::Finish(const ItemDictionary& dict,
                           const Taxonomy& taxonomy) {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition(
        "store writer is no longer usable (a previous operation failed)");
  }
  Status status = FinishImpl(dict, taxonomy);
  if (!status.ok()) {
    if (append_mode_ && commit_trailer_durable_) {
      // The commit trailer is already fsynced: the session IS durable,
      // only the front-header rewrite (or the final sync/close) failed.
      // Rolling back now would truncate committed data — and, with the
      // front header possibly half-rewritten, leave nothing valid at
      // all. Keep the file; repair redoes the front header from the
      // trailer.
      if (file_ != nullptr) {
        (void)file_->Close();
        file_.reset();
      }
      return Status(
          status.code(),
          status.message() +
              " (the append session itself is committed — run "
              "`flipper_cli repair --apply` to finalize the front "
              "header)");
    }
    if (file_ != nullptr) {
      Abandon();
    } else if (append_mode_) {
      // Failed after Close (e.g. a metadata operation): roll the file
      // back to the base store.
      (void)fs_->Truncate(final_path_, base_file_size_);
    } else {
      (void)fs_->Remove(write_path_);
    }
    return status;
  }
  finished_ = true;
  return Status::OK();
}

Status StoreWriter::FinishImpl(const ItemDictionary& dict,
                               const Taxonomy& taxonomy) {
  if (alphabet_size_ > dict.size()) {
    return Status::InvalidArgument(
        "dictionary has " + std::to_string(dict.size()) +
        " names but transactions reference item " +
        std::to_string(alphabet_size_ - 1));
  }
  if (taxonomy.id_space() > dict.size()) {
    return Status::InvalidArgument(
        "dictionary has " + std::to_string(dict.size()) +
        " names but the taxonomy id space is " +
        std::to_string(taxonomy.id_space()));
  }
  if (append_mode_) {
    // Committed ids must keep their meaning: the session's dictionary
    // and taxonomy may only extend what is already on disk.
    const size_t base_dict_size = base_name_offsets_.size() - 1;
    if (dict.size() < base_dict_size) {
      return Status::InvalidArgument(
          "append sessions may only extend the dictionary: it shrank "
          "from " + std::to_string(base_dict_size) + " to " +
          std::to_string(dict.size()) + " names: " + final_path_);
    }
    for (ItemId id = 0; id < base_dict_size; ++id) {
      const std::string_view base_name =
          std::string_view(base_name_blob_)
              .substr(base_name_offsets_[id],
                      base_name_offsets_[id + 1] - base_name_offsets_[id]);
      if (dict.Name(id) != base_name) {
        return Status::InvalidArgument(
            "append sessions may only extend the dictionary: the name "
            "of id " + std::to_string(id) + " changed from \"" +
            std::string(base_name) + "\" to \"" +
            std::string(dict.Name(id)) + "\": " + final_path_);
      }
    }
    if (taxonomy.id_space() < base_parents_.size()) {
      return Status::InvalidArgument(
          "append sessions may only extend the taxonomy: its id space "
          "shrank from " + std::to_string(base_parents_.size()) +
          " to " + std::to_string(taxonomy.id_space()) + ": " +
          final_path_);
    }
    for (size_t id = 0; id < base_parents_.size(); ++id) {
      if (taxonomy.ParentOf(static_cast<ItemId>(id)) !=
          base_parents_[id]) {
        return Status::InvalidArgument(
            "append sessions may only extend the taxonomy: the parent "
            "of id " + std::to_string(id) + " changed: " + final_path_);
      }
    }
    const auto& roots = taxonomy.Level1();
    if (roots.size() < base_roots_.size() ||
        !std::equal(base_roots_.begin(), base_roots_.end(),
                    roots.begin())) {
      return Status::InvalidArgument(
          "append sessions may only extend the taxonomy: the committed "
          "roots changed: " + final_path_);
    }
  }

  // This session's items block has been streaming since
  // Create/OpenAppend.
  SectionEntry items_entry;
  items_entry.id = static_cast<uint32_t>(SectionId::kTxnItems);
  items_entry.offset = items_start_;
  items_entry.size = file_pos_ - items_start_;
  items_entry.checksum = items_checksum_;
  FLIPPER_RETURN_IF_ERROR(Pad());

  std::vector<SectionEntry> written;  // sections written below, in order
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kTxnOffsets, offsets_.data(),
      offsets_.size() * sizeof(uint64_t), &written));
  const SectionEntry offsets_entry = written.back();
  written.pop_back();

  if (segments_.back() != num_transactions()) {
    segments_.push_back(num_transactions());
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kSegments, segments_.data(),
      segments_.size() * sizeof(uint64_t), &written));

  std::vector<uint64_t> name_offsets;
  name_offsets.reserve(dict.size() + 1);
  name_offsets.push_back(0);
  std::string blob;
  for (ItemId id = 0; id < dict.size(); ++id) {
    blob += dict.Name(id);
    name_offsets.push_back(blob.size());
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kDictOffsets, name_offsets.data(),
      name_offsets.size() * sizeof(uint64_t), &written));
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kDictBlob, blob.data(), blob.size(), &written));

  std::vector<ItemId> parents(taxonomy.id_space());
  for (size_t id = 0; id < parents.size(); ++id) {
    parents[id] = taxonomy.ParentOf(static_cast<ItemId>(id));
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kTaxParents, parents.data(),
      parents.size() * sizeof(ItemId), &written));
  const std::vector<ItemId>& roots = taxonomy.Level1();
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kTaxRoots, roots.data(), roots.size() * sizeof(ItemId),
      &written));

  // Assemble the section table. Fresh files keep the historical order
  // (items first); appended files list the committed column blocks
  // ahead of this session's, since readers concatenate blocks in
  // table order.
  std::vector<SectionEntry> table;
  table.reserve(base_offsets_blocks_.size() + base_items_blocks_.size() +
                2 + written.size());
  if (!append_mode_) {
    table.push_back(items_entry);
    table.push_back(offsets_entry);
  } else {
    table.insert(table.end(), base_offsets_blocks_.begin(),
                 base_offsets_blocks_.end());
    table.push_back(offsets_entry);
    table.insert(table.end(), base_items_blocks_.begin(),
                 base_items_blocks_.end());
    table.push_back(items_entry);
  }
  table.insert(table.end(), written.begin(), written.end());
  const uint64_t table_bytes = table.size() * sizeof(SectionEntry);

  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersionV1;
  header.section_count = static_cast<uint32_t>(table.size());
  header.num_transactions = num_transactions();
  header.num_items = num_items();
  header.num_segments = segments_.size() - 1;
  header.alphabet_size = alphabet_size_;
  header.max_width = max_width_;
  header.dict_size = dict.size();
  header.taxonomy_id_space = static_cast<uint32_t>(taxonomy.id_space());
  header.taxonomy_num_roots = static_cast<uint32_t>(roots.size());
  header.table_checksum = Fnv1a64(table.data(), table_bytes);

  if (!append_mode_) {
    // Fresh store: table right after the header (the placeholder
    // reserved exactly this much room), commit by rename.
    header.table_offset = 0;
    header.file_size = file_pos_;
    header.header_checksum = HeaderChecksum(header);
    std::vector<uint8_t> front(sizeof(FileHeader) + table_bytes);
    std::memcpy(front.data(), &header, sizeof(header));
    std::memcpy(front.data() + sizeof(header), table.data(), table_bytes);
    FLIPPER_RETURN_IF_ERROR(file_->WriteAt(0, front.data(), front.size()));
    FLIPPER_RETURN_IF_ERROR(file_->Sync());
    {
      Status closed = file_->Close();
      file_.reset();
      FLIPPER_RETURN_IF_ERROR(closed);
    }
    FLIPPER_RETURN_IF_ERROR(fs_->Rename(write_path_, final_path_));
    return fs_->SyncDir(final_path_);
  }

  // Append session: the commit trailer. Order matters — data must be
  // durable before the trailer (the commit record), and the trailer
  // before the front-header rewrite; see format.h.
  FLIPPER_RETURN_IF_ERROR(file_->Sync());
  header.table_offset = file_pos_;
  header.file_size = file_pos_ + table_bytes + sizeof(FileHeader);
  header.header_checksum = HeaderChecksum(header);
  FLIPPER_RETURN_IF_ERROR(WriteBytes(table.data(), table_bytes, nullptr));
  FLIPPER_RETURN_IF_ERROR(WriteBytes(&header, sizeof(header), nullptr));
  // The commit point: after this fsync the session is durable even if
  // the front header below never lands (repair redoes it from the
  // trailer).
  FLIPPER_RETURN_IF_ERROR(file_->Sync());
  commit_trailer_durable_ = true;
  FLIPPER_RETURN_IF_ERROR(file_->WriteAt(0, &header, sizeof(header)));
  FLIPPER_RETURN_IF_ERROR(file_->Sync());
  Status closed = file_->Close();
  file_.reset();
  return closed;
}

Status WriteStoreFile(const std::string& path, const TransactionDb& db,
                      const ItemDictionary& dict, const Taxonomy& taxonomy,
                      const StoreWriter::Options& options, FileSystem* fs) {
  FLIPPER_ASSIGN_OR_RETURN(StoreWriter writer,
                           StoreWriter::Create(path, options, fs));
  for (TxnId t = 0; t < db.size(); ++t) {
    FLIPPER_RETURN_IF_ERROR(writer.Append(db.Get(t)));
  }
  return writer.Finish(dict, taxonomy);
}

}  // namespace storage
}  // namespace flipper
