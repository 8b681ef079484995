#include "storage/recovery.h"

#include <cstring>

#include "storage/mmap_file.h"

namespace flipper {
namespace storage {
namespace {

/// Parse-only header check (magic, version, checksum) used by the
/// diagnosis pass; mirrors the reader's but reports instead of
/// rejecting.
bool ParseHeader(const std::byte* at, FileHeader* h, std::string* why) {
  std::memcpy(h, at, sizeof(*h));
  if (std::memcmp(h->magic, kMagic, sizeof(kMagic)) != 0) {
    *why = "bad magic (not a FlipperStore header)";
    return false;
  }
  if (SectionCountForVersion(h->version) == 0) {
    *why = "unsupported version " + std::to_string(h->version);
    return false;
  }
  if (HeaderChecksum(*h) != h->header_checksum) {
    *why = "header checksum mismatch";
    return false;
  }
  return true;
}

std::string HumanAction(RepairPlan::Action action) {
  switch (action) {
    case RepairPlan::Action::kNone:
      return "none";
    case RepairPlan::Action::kTruncateTail:
      return "truncate torn tail";
    case RepairPlan::Action::kRewriteFrontHeader:
      return "rewrite front header from the commit trailer";
    case RepairPlan::Action::kUnrecoverable:
      return "unrecoverable";
  }
  return "?";
}

}  // namespace

Result<RepairPlan> AnalyzeStore(const std::string& path) {
  RepairPlan plan;
  PrefixInfo info;
  Result<StoreReader> reader = StoreReader::OpenPrefix(path, &info);
  plan.physical_size = info.physical_size;
  if (!reader.ok()) {
    const StatusCode code = reader.status().code();
    if (code == StatusCode::kIoError || code == StatusCode::kNotFound ||
        code == StatusCode::kInvalidArgument) {
      // Unreadable, or intact in another format version: not corrupt.
      return reader.status();
    }
    // Either no committed header survives, or one does but its payload
    // fails validation — both are beyond what repair can restore.
    plan.action = RepairPlan::Action::kUnrecoverable;
    plan.committed_size = info.committed_size;
    plan.header = info.committed_header;
    plan.detail = reader.status().message();
    return plan;
  }
  plan.committed_size = info.committed_size;
  plan.header = info.committed_header;
  plan.detail = info.detail;
  switch (info.recovery) {
    case PrefixInfo::Recovery::kClean:
      plan.action = RepairPlan::Action::kNone;
      break;
    case PrefixInfo::Recovery::kTruncateTail:
      plan.action = RepairPlan::Action::kTruncateTail;
      plan.torn_bytes = plan.physical_size - plan.committed_size;
      break;
    case PrefixInfo::Recovery::kRewriteFrontHeader:
      plan.action = RepairPlan::Action::kRewriteFrontHeader;
      break;
  }
  return plan;
}

Status ApplyRepair(const std::string& path, const RepairPlan& plan,
                   FileSystem* fs) {
  fs = ResolveFileSystem(fs);
  switch (plan.action) {
    case RepairPlan::Action::kNone:
      return Status::OK();
    case RepairPlan::Action::kUnrecoverable:
      return Status::FailedPrecondition(
          "store is unrecoverable, refusing to repair: " + plan.detail);
    case RepairPlan::Action::kTruncateTail: {
      FLIPPER_RETURN_IF_ERROR(fs->Truncate(path, plan.committed_size));
      // Make the new length durable before declaring success.
      std::unique_ptr<WritableFile> f;
      FLIPPER_ASSIGN_OR_RETURN(f, fs->OpenWritable(path, false));
      FLIPPER_RETURN_IF_ERROR(f->Sync());
      FLIPPER_RETURN_IF_ERROR(f->Close());
      break;
    }
    case RepairPlan::Action::kRewriteFrontHeader: {
      std::unique_ptr<WritableFile> f;
      FLIPPER_ASSIGN_OR_RETURN(f, fs->OpenWritable(path, false));
      FLIPPER_RETURN_IF_ERROR(
          f->WriteAt(0, &plan.header, sizeof(FileHeader)));
      FLIPPER_RETURN_IF_ERROR(f->Sync());
      FLIPPER_RETURN_IF_ERROR(f->Close());
      break;
    }
  }
  // The repaired file must now satisfy the strict validated open; if
  // it does not, the plan was stale (file changed underneath us).
  Result<StoreReader> verify = StoreReader::Open(path);
  if (!verify.ok()) {
    return Status(verify.status().code(),
                  "repair completed but the store still fails to open "
                  "(stale plan? file modified concurrently?): " +
                      verify.status().message());
  }
  return verify->VerifyChecksums();
}

Result<Diagnosis> DiagnoseStore(const std::string& path) {
  Diagnosis d;
  MmapFile file;
  FLIPPER_ASSIGN_OR_RETURN(file, MmapFile::Open(path));
  const std::byte* base = file.data();
  const uint64_t phys = file.size();
  FLIPPER_ASSIGN_OR_RETURN(d.plan, AnalyzeStore(path));
  d.valid = d.plan.action == RepairPlan::Action::kNone;

  d.findings.push_back(
      {"file", 0, phys, true,
       std::to_string(phys) + " bytes, planned action: " +
           HumanAction(d.plan.action)});

  // --- The two header locations. ---
  FileHeader front;
  bool front_ok = false;
  if (phys < sizeof(FileHeader)) {
    d.findings.push_back({"front_header", 0, phys, false,
                          "file too small to hold a header"});
  } else {
    std::string why;
    front_ok = ParseHeader(base, &front, &why);
    Finding f{"front_header", 0, sizeof(FileHeader), front_ok, why};
    if (front_ok) {
      f.detail = "version " + std::to_string(front.version) +
                 ", records file_size " + std::to_string(front.file_size);
      if (d.plan.action == RepairPlan::Action::kRewriteFrontHeader) {
        f.ok = false;
        f.detail += " — stale: the commit trailer records " +
                    std::to_string(d.plan.committed_size) +
                    " (crash between trailer and front-header rewrite)";
      }
    }
    d.findings.push_back(std::move(f));
  }
  const bool want_trailer =
      !front_ok || (phys >= sizeof(FileHeader) && front.file_size != phys);
  if (want_trailer && phys >= sizeof(FileHeader)) {
    FileHeader tail;
    std::string why;
    const uint64_t at = phys - sizeof(FileHeader);
    bool ok = ParseHeader(base + at, &tail, &why);
    if (ok && tail.file_size != phys) {
      ok = false;
      why = "header-shaped bytes but records file_size " +
            std::to_string(tail.file_size) + ", not the physical " +
            std::to_string(phys);
    }
    d.findings.push_back(
        {"commit_trailer", at, sizeof(FileHeader), ok,
         ok ? "valid commit trailer (version " +
                  std::to_string(tail.version) + ")"
            : "no commit trailer at end of file: " + why});
  }
  if (d.plan.action == RepairPlan::Action::kTruncateTail) {
    d.findings.push_back(
        {"torn_tail", d.plan.committed_size, d.plan.torn_bytes, false,
         "torn bytes from a crashed append session; repair truncates "
         "them"});
  }

  // --- Walk the committed state's section table, if one was found. ---
  if (d.plan.committed_size >= sizeof(FileHeader)) {
    const FileHeader& h = d.plan.header;
    const uint64_t limit =
        d.plan.committed_size <= phys ? d.plan.committed_size : phys;
    const uint64_t table_offset =
        h.table_offset == 0 ? sizeof(FileHeader) : h.table_offset;
    const uint64_t table_bytes =
        uint64_t{h.section_count} * sizeof(SectionEntry);
    const bool table_in_bounds =
        h.section_count <= kMaxSectionCount &&
        table_offset % kSectionAlignment == 0 &&
        table_offset >= sizeof(FileHeader) && table_offset <= limit &&
        limit - table_offset >= table_bytes;
    if (!table_in_bounds) {
      d.findings.push_back({"section_table", table_offset, table_bytes,
                            false,
                            "section table does not fit the committed "
                            "file (count " +
                                std::to_string(h.section_count) + ")"});
    } else {
      const bool table_sum_ok =
          Fnv1a64(base + table_offset, table_bytes) == h.table_checksum;
      d.findings.push_back(
          {"section_table", table_offset, table_bytes, table_sum_ok,
           table_sum_ok
               ? std::to_string(h.section_count) + " sections, checksum ok"
               : "section table checksum mismatch"});
      if (table_sum_ok) {
        for (uint32_t i = 0; i < h.section_count; ++i) {
          SectionEntry e;
          std::memcpy(&e, base + table_offset + i * sizeof(SectionEntry),
                      sizeof(e));
          const std::string name = SectionIdName(SectionId(e.id));
          if (e.offset % kSectionAlignment != 0 || e.offset > limit ||
              limit - e.offset < e.size) {
            d.findings.push_back(
                {name, e.offset, e.size, false,
                 "section extends past the committed bytes"});
            continue;
          }
          const bool sum_ok =
              Fnv1a64(base + e.offset, static_cast<size_t>(e.size)) ==
              e.checksum;
          d.findings.push_back({name, e.offset, e.size, sum_ok,
                                sum_ok ? "checksum ok"
                                       : "payload checksum mismatch"});
        }
      }
    }
    // A semantic failure (checksums fine, content invalid) shows up
    // only in the open error; surface it as its own finding.
    if (d.plan.action == RepairPlan::Action::kUnrecoverable) {
      d.findings.push_back({"payload", 0, limit, false, d.plan.detail});
    }
  } else if (d.plan.action == RepairPlan::Action::kUnrecoverable) {
    d.findings.push_back({"payload", 0, phys, false, d.plan.detail});
  }
  return d;
}

}  // namespace storage
}  // namespace flipper
