// FlipperStore tests: byte-level round trips (basket -> .fdb -> mine
// is bit-identical to mining the text inputs, serial and parallel),
// the streaming writer against the bulk path, borrowed-view semantics,
// raw (v1) append sessions and their prefix rule, the refusal of any
// other format version, and a corruption battery — every malformed
// file must come back as a Status error, never a crash.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "data/db_io.h"
#include "storage/format.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "taxonomy/taxonomy_builder.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << path;
  std::ostringstream oss;
  oss << f.rdbuf();
  return oss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

storage::FileHeader* HeaderOf(std::string* bytes) {
  return reinterpret_cast<storage::FileHeader*>(bytes->data());
}

/// The section table the front header points at (after the header, or
/// in the commit trailer of an appended file).
storage::SectionEntry* TableOf(std::string* bytes) {
  const uint64_t offset = HeaderOf(bytes)->table_offset;
  return reinterpret_cast<storage::SectionEntry*>(
      bytes->data() +
      (offset == 0 ? sizeof(storage::FileHeader) : offset));
}

/// Every table entry with `id`, in table order (column blocks).
std::vector<storage::SectionEntry*> BlocksOf(std::string* bytes,
                                             storage::SectionId id) {
  std::vector<storage::SectionEntry*> blocks;
  storage::SectionEntry* table = TableOf(bytes);
  for (uint32_t i = 0; i < HeaderOf(bytes)->section_count; ++i) {
    if (table[i].id == static_cast<uint32_t>(id)) {
      blocks.push_back(&table[i]);
    }
  }
  return blocks;
}

storage::SectionEntry* SectionOf(std::string* bytes,
                                 storage::SectionId id) {
  const auto blocks = BlocksOf(bytes, id);
  return blocks.empty() ? nullptr : blocks.front();
}

/// Recomputes section, table and header checksums so a deliberately
/// patched payload exercises the deep validation scan rather than the
/// checksum gates. An appended file's commit trailer (the copy of the
/// front header that ends the file) is rewritten to match, so that
/// OpenPrefix and repair see the same committed state as Open.
void FixChecksums(std::string* bytes) {
  auto* header = HeaderOf(bytes);
  const bool has_trailer = header->table_offset != 0 &&
                           bytes->size() >= 2 * sizeof(storage::FileHeader);
  auto* table = TableOf(bytes);
  for (uint32_t i = 0; i < header->section_count; ++i) {
    // A section the test pointed outside the file cannot be hashed;
    // the reader rejects it on bounds before any checksum check.
    if (table[i].offset > bytes->size() ||
        table[i].size > bytes->size() - table[i].offset) {
      continue;
    }
    table[i].checksum = storage::Fnv1a64(
        bytes->data() + table[i].offset,
        static_cast<size_t>(table[i].size));
  }
  header->table_checksum = storage::Fnv1a64(
      table, header->section_count * sizeof(storage::SectionEntry));
  header->header_checksum = storage::HeaderChecksum(*header);
  if (has_trailer) {
    std::memcpy(bytes->data() + bytes->size() - sizeof(*header), header,
                sizeof(*header));
  }
}

/// Mines and serializes to the CSV export (the CLI's machine format);
/// byte equality of two of these is the round-trip criterion.
std::string MineToCsv(const TransactionDb& db, const Taxonomy& taxonomy,
                      const ItemDictionary& dict, int threads) {
  MiningConfig config;
  config.gamma = 0.45;
  config.epsilon = 0.2;
  config.min_support = {0.003, 0.002, 0.002};
  config.num_threads = threads;
  auto result = FlipperMiner::Run(db, taxonomy, config);
  EXPECT_TRUE(result.ok()) << result.status();
  std::ostringstream oss;
  EXPECT_TRUE(WritePatternsCsv(result->patterns, &dict, oss).ok());
  return oss.str();
}

/// Text files + .fdb conversion of one randomized dataset, shared by
/// the round-trip tests.
struct ConvertedDataset {
  std::string basket_path;
  std::string taxonomy_path;
  std::string store_path;
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
};

ConvertedDataset MakeConverted(const std::string& tag) {
  testutil::Dataset data = testutil::RandomDataset(1234, 5, 3, 3, 600, 9);
  ConvertedDataset out;
  out.basket_path = TempPath(tag + ".basket");
  out.taxonomy_path = TempPath(tag + ".taxonomy");
  out.store_path = TempPath(tag + ".fdb");
  EXPECT_TRUE(
      WriteTaxonomyFile(data.taxonomy, data.dict, out.taxonomy_path).ok());
  EXPECT_TRUE(WriteBasketFile(data.db, data.dict, out.basket_path).ok());
  // Reload through the text readers (exactly what the CLI does) so the
  // id assignment matches a fresh `flipper_cli mine <basket> <tax>`.
  auto taxonomy = ReadTaxonomyFile(out.taxonomy_path, &out.dict);
  EXPECT_TRUE(taxonomy.ok()) << taxonomy.status();
  out.taxonomy = std::move(taxonomy).value();
  auto db = ReadBasketFile(out.basket_path, &out.dict);
  EXPECT_TRUE(db.ok()) << db.status();
  out.db = std::move(db).value();
  EXPECT_TRUE(storage::WriteStoreFile(out.store_path, out.db, out.dict,
                                      out.taxonomy)
                  .ok());
  return out;
}

TEST(StorageRoundTrip, MiningIsBitIdenticalAtAnyThreadCount) {
  ConvertedDataset data = MakeConverted("roundtrip");
  auto reader = storage::StoreReader::Open(data.store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->db().size(), data.db.size());
  EXPECT_TRUE(reader->db().borrowed());
  EXPECT_TRUE(reader->dict().borrowed());

  for (int threads : {1, 4}) {
    const std::string from_text =
        MineToCsv(data.db, data.taxonomy, data.dict, threads);
    const std::string from_store = MineToCsv(
        reader->db(), reader->taxonomy(), reader->dict(), threads);
    EXPECT_FALSE(from_text.empty());
    EXPECT_EQ(from_text, from_store) << "threads=" << threads;
  }
}

TEST(StorageRoundTrip, BasketReserializationIsByteIdentical) {
  ConvertedDataset data = MakeConverted("reserialize");
  auto reader = storage::StoreReader::Open(data.store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::string rewritten = TempPath("reserialize2.basket");
  ASSERT_TRUE(
      WriteBasketFile(reader->db(), reader->dict(), rewritten).ok());
  EXPECT_EQ(ReadFileBytes(data.basket_path), ReadFileBytes(rewritten));
}

TEST(StorageRoundTrip, HeapFallbackMatchesMmap) {
  ConvertedDataset data = MakeConverted("heap");
  storage::OpenOptions heap_options;
  heap_options.force_heap = true;
  auto mapped = storage::StoreReader::Open(data.store_path);
  auto heap = storage::StoreReader::Open(data.store_path, heap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(heap.ok()) << heap.status();
  EXPECT_FALSE(heap->mapped());
  EXPECT_EQ(
      MineToCsv(mapped->db(), mapped->taxonomy(), mapped->dict(), 1),
      MineToCsv(heap->db(), heap->taxonomy(), heap->dict(), 1));
}

TEST(StorageWriter, StreamingAppendMatchesBulkWrite) {
  testutil::Dataset data = testutil::RandomDataset(9, 3, 2, 3, 120, 5);
  const std::string bulk_path = TempPath("bulk.fdb");
  const std::string stream_path = TempPath("stream.fdb");
  ASSERT_TRUE(storage::WriteStoreFile(bulk_path, data.db, data.dict,
                                      data.taxonomy)
                  .ok());
  auto writer = storage::StoreWriter::Create(stream_path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (TxnId t = 0; t < data.db.size(); ++t) {
    ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
  }
  ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
  EXPECT_EQ(ReadFileBytes(bulk_path), ReadFileBytes(stream_path));
}

TEST(StorageWriter, SegmentBoundariesFollowTheConfiguredSize) {
  testutil::Dataset data = testutil::RandomDataset(5, 3, 2, 3, 100, 5);
  const std::string path = TempPath("segments.fdb");
  storage::StoreWriter::Options options;
  options.segment_txns = 32;
  ASSERT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy, options)
                  .ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto segments = reader->segments();
  ASSERT_EQ(segments.size(), 5u);  // 100 txns / 32 -> 0,32,64,96,100
  EXPECT_EQ(segments[0], 0u);
  EXPECT_EQ(segments[1], 32u);
  EXPECT_EQ(segments[3], 96u);
  EXPECT_EQ(segments[4], 100u);
}

TEST(StorageBorrowed, MutationMaterializesTheViews) {
  ConvertedDataset data = MakeConverted("borrowed");
  auto reader = storage::StoreReader::Open(data.store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  TransactionDb copy = reader->db();  // still borrowed
  EXPECT_TRUE(copy.borrowed());
  const uint32_t before = copy.size();
  copy.Add({0, 1});
  EXPECT_FALSE(copy.borrowed());
  EXPECT_EQ(copy.size(), before + 1);
  for (TxnId t = 0; t < before; ++t) {
    const auto a = reader->db().Get(t);
    const auto b = copy.Get(t);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }

  ItemDictionary dict_copy = reader->dict();
  EXPECT_TRUE(dict_copy.borrowed());
  const std::string name0(dict_copy.Name(0));
  EXPECT_EQ(*dict_copy.Find(name0), 0u);  // linear-scan lookup
  const ItemId added = dict_copy.Intern("brand-new-item");
  EXPECT_FALSE(dict_copy.borrowed());
  EXPECT_EQ(added, reader->dict().size());
  EXPECT_EQ(dict_copy.Name(0), name0);
}

// --- Corruption battery ----------------------------------------------

std::string MakeToyStore(const std::string& tag) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath(tag + ".fdb");
  EXPECT_TRUE(
      storage::WriteStoreFile(path, data.db, data.dict, data.taxonomy)
          .ok());
  return path;
}

TEST(StorageCorruption, TruncatedHeaderFails) {
  const std::string path = MakeToyStore("trunc_header");
  WriteFileBytes(path, ReadFileBytes(path).substr(0, 10));
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("truncated header"),
            std::string::npos);
}

TEST(StorageCorruption, BadMagicFails) {
  const std::string path = MakeToyStore("magic");
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST(StorageCorruption, UnsupportedVersionFails) {
  const std::string path = MakeToyStore("version");
  std::string bytes = ReadFileBytes(path);
  HeaderOf(&bytes)->version = 99;
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("version"),
            std::string::npos);
}

/// The refusal every open path gives a file of format version 2.
std::string VersionTwoRefusal(const std::string& path) {
  return "unsupported store version 2 (this build reads only version 1; "
         "a store written by an older build must be regenerated from its "
         "source files with `flipper_cli convert` or `flipper_cli "
         "datagen`): " +
         path;
}

/// A copy of the v1 store at `path` whose headers claim version 2
/// (checksums fixed, so only the version is wrong).
std::string MakeVersionTwoStore(const std::string& path,
                                const std::string& tag) {
  std::string bytes = ReadFileBytes(path);
  HeaderOf(&bytes)->version = 2;
  FixChecksums(&bytes);
  const std::string out = TempPath(tag + "_version2.fdb");
  WriteFileBytes(out, bytes);
  return out;
}

TEST(StorageCorruption, HeaderBitFlipFailsTheChecksum) {
  const std::string path = MakeToyStore("header_flip");
  std::string bytes = ReadFileBytes(path);
  HeaderOf(&bytes)->num_transactions += 1;  // checksum left stale
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("header checksum"),
            std::string::npos);
}

TEST(StorageCorruption, TruncatedFileFails) {
  const std::string path = MakeToyStore("trunc_file");
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 16));
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("size mismatch"),
            std::string::npos);
}

TEST(StorageCorruption, SectionBeyondEndOfFileFails) {
  const std::string path = MakeToyStore("section_bounds");
  std::string bytes = ReadFileBytes(path);
  SectionOf(&bytes, storage::SectionId::kTxnItems)->offset =
      storage::AlignUp(bytes.size() + 64);
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("past end of file"),
            std::string::npos);
}

TEST(StorageCorruption, OutOfRangeItemFails) {
  const std::string path = MakeToyStore("bad_item");
  std::string bytes = ReadFileBytes(path);
  const auto* items = SectionOf(&bytes, storage::SectionId::kTxnItems);
  ASSERT_NE(items, nullptr);
  uint32_t bogus = HeaderOf(&bytes)->alphabet_size + 100;
  std::memcpy(bytes.data() + items->offset, &bogus, sizeof(bogus));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("out of range"),
            std::string::npos);
}

TEST(StorageCorruption, NonMonotoneOffsetsFail) {
  const std::string path = MakeToyStore("bad_offsets");
  std::string bytes = ReadFileBytes(path);
  const auto* offsets =
      SectionOf(&bytes, storage::SectionId::kTxnOffsets);
  ASSERT_NE(offsets, nullptr);
  const uint64_t bogus = HeaderOf(&bytes)->num_items + 7;
  std::memcpy(bytes.data() + offsets->offset + sizeof(uint64_t), &bogus,
              sizeof(bogus));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("not monotone"),
            std::string::npos);
}

TEST(StorageCorruption, TrustedOpenStillChecksTheOffsets) {
  // TransactionDb::Get hands out spans straight from the offsets, so a
  // trusted open must not let one point past the items section (it
  // would read on into the next section).
  const std::string path = MakeToyStore("trusted_offsets");
  std::string bytes = ReadFileBytes(path);
  const auto* offsets =
      SectionOf(&bytes, storage::SectionId::kTxnOffsets);
  ASSERT_NE(offsets, nullptr);
  uint64_t lo = 0;
  std::memcpy(&lo, bytes.data() + offsets->offset, sizeof(lo));
  const uint64_t bogus = lo + (uint64_t{1} << 30);
  std::memcpy(bytes.data() + offsets->offset + sizeof(uint64_t), &bogus,
              sizeof(bogus));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  storage::OpenOptions trusting;
  trusting.validate = false;
  for (const bool validate : {true, false}) {
    auto reader = storage::StoreReader::Open(
        path, validate ? storage::OpenOptions{} : trusting);
    ASSERT_FALSE(reader.ok()) << "validate=" << validate;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
    EXPECT_NE(reader.status().message().find("not monotone"),
              std::string::npos)
        << reader.status();
  }
}

TEST(StorageCorruption, TrustedOpenSkipsThePayloadScan) {
  // Same corruption as OutOfRangeItemFails, but validate=false trusts
  // the payload; structural gates still pass, so Open succeeds. (This
  // is the documented contract, not a bug: trusted mode is for files
  // this process just wrote.)
  const std::string path = MakeToyStore("trusted");
  std::string bytes = ReadFileBytes(path);
  const auto* items = SectionOf(&bytes, storage::SectionId::kTxnItems);
  uint32_t bogus = HeaderOf(&bytes)->alphabet_size + 100;
  std::memcpy(bytes.data() + items->offset, &bogus, sizeof(bogus));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  storage::OpenOptions trusting;
  trusting.validate = false;
  EXPECT_TRUE(storage::StoreReader::Open(path, trusting).ok());
  EXPECT_FALSE(storage::StoreReader::Open(path).ok());
}

TEST(StorageCorruption, VerifyChecksumsCatchesPayloadBitrot) {
  const std::string path = MakeToyStore("bitrot");
  std::string bytes = ReadFileBytes(path);
  // Flip a byte inside the name blob: no structural check looks at
  // name bytes, so Open succeeds and only the checksum sweep trips.
  const auto* blob = SectionOf(&bytes, storage::SectionId::kDictBlob);
  ASSERT_NE(blob, nullptr);
  ASSERT_GT(blob->size, 0u);
  bytes[blob->offset] ^= 0x20;
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Status verified = reader->VerifyChecksums();
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.code(), StatusCode::kCorruptedData);
  EXPECT_NE(verified.message().find("dict_blob"), std::string::npos);
}

TEST(StorageRoundTrip, EmptyDatabaseRoundTrips) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("empty_v1.fdb");
  ASSERT_TRUE(storage::WriteStoreFile(path, TransactionDb(), data.dict,
                                      data.taxonomy)
                  .ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->db().size(), 0u);
  EXPECT_EQ(reader->dict().size(), data.dict.size());
  EXPECT_TRUE(reader->VerifyChecksums().ok());
}

TEST(StorageCorruption, HugeClaimedCountsFailBeforeAllocating) {
  // A corrupt header claiming 2^32-1 transactions (with the segments
  // section patched to agree) must be rejected by comparing it with
  // the column blocks, not by a multi-gigabyte column buffer that
  // escapes as bad_alloc.
  const std::string path = MakeToyStore("huge_counts");
  std::string bytes = ReadFileBytes(path);
  const uint64_t huge = 0xFFFFFFFFull;
  HeaderOf(&bytes)->num_transactions = huge;
  const auto* segments = SectionOf(&bytes, storage::SectionId::kSegments);
  ASSERT_NE(segments, nullptr);
  std::memcpy(bytes.data() + segments->offset + sizeof(uint64_t), &huge,
              sizeof(huge));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("column blocks hold 10 "
                                           "transactions"),
            std::string::npos)
      << reader.status();
}

TEST(StorageCorruption, EmptyAndGarbageFilesFailCleanly) {
  const std::string empty = TempPath("empty.fdb");
  WriteFileBytes(empty, "");
  EXPECT_FALSE(storage::StoreReader::Open(empty).ok());

  const std::string garbage = TempPath("garbage.fdb");
  WriteFileBytes(garbage, std::string(4096, '\x5a'));
  auto reader = storage::StoreReader::Open(garbage);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);

  EXPECT_FALSE(
      storage::StoreReader::Open(TempPath("missing_file.fdb")).ok());
}

// --- Append sessions -------------------------------------------------

/// Writes the first `base_txns` transactions of `data` as a fresh
/// store at `path`.
void WriteBaseStore(const std::string& path, const testutil::Dataset& data,
                    uint64_t base_txns, uint32_t segment_txns) {
  storage::StoreWriter::Options options;
  options.segment_txns = segment_txns;
  auto writer = storage::StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (uint64_t t = 0; t < base_txns; ++t) {
    ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
  }
  ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
}

/// Appends transactions [from, to) of `data` as one session.
void AppendSession(const std::string& path, const testutil::Dataset& data,
                   uint64_t from, uint64_t to) {
  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (uint64_t t = from; t < to; ++t) {
    ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
  }
  EXPECT_EQ(writer->appended_transactions(), to - from);
  ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
}

TEST(StorageAppend, AppendThenMineEqualsRebuildThenMine) {
  const testutil::Dataset data =
      testutil::RandomDataset(4321, 4, 2, 3, 90, 6);
  const std::string appended_path = TempPath("append_grow.fdb");
  const std::string rebuilt_path = TempPath("append_rebuild.fdb");
  WriteBaseStore(appended_path, data, 60, /*segment_txns=*/16);
  AppendSession(appended_path, data, 60, 90);

  storage::StoreWriter::Options options;
  options.segment_txns = 16;
  ASSERT_TRUE(storage::WriteStoreFile(rebuilt_path, data.db, data.dict,
                                      data.taxonomy, options)
                  .ok());

  auto appended = storage::StoreReader::Open(appended_path);
  auto rebuilt = storage::StoreReader::Open(rebuilt_path);
  ASSERT_TRUE(appended.ok()) << appended.status();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(appended->VerifyChecksums().ok());

  // Layout: one extra raw block pair, table relocated to the trailer.
  EXPECT_EQ(appended->version(), storage::kFormatVersionV1);
  EXPECT_EQ(appended->header().section_count,
            storage::kNumSectionsV1 + 2);
  EXPECT_NE(appended->header().table_offset, 0u);
  EXPECT_EQ(appended->db().size(), 90u);
  // The appended transactions land in fresh segments after the base's
  // [0,16,32,48,60]; the 30 new ones cut at 16 -> [76, 90].
  const std::vector<uint64_t> boundaries(appended->segments().begin(),
                                         appended->segments().end());
  EXPECT_EQ(boundaries,
            (std::vector<uint64_t>{0, 16, 32, 48, 60, 76, 90}));

  for (const int threads : {1, 4}) {
    const std::string expected =
        MineToCsv(data.db, data.taxonomy, data.dict, threads);
    EXPECT_EQ(MineToCsv(appended->db(), appended->taxonomy(),
                        appended->dict(), threads),
              expected)
        << "appended store diverged at " << threads << " thread(s)";
    EXPECT_EQ(MineToCsv(rebuilt->db(), rebuilt->taxonomy(),
                        rebuilt->dict(), threads),
              expected)
        << "rebuilt store diverged at " << threads << " thread(s)";
  }
}

TEST(StorageAppend, EverySessionAddsABlockPair) {
  const testutil::Dataset data =
      testutil::RandomDataset(99, 3, 2, 2, 60, 5);
  const std::string path = TempPath("append_multi.fdb");
  WriteBaseStore(path, data, 30, /*segment_txns=*/8);
  AppendSession(path, data, 30, 45);
  AppendSession(path, data, 45, 60);

  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->header().section_count, storage::kNumSectionsV1 + 4);
  EXPECT_EQ(reader->db().size(), 60u);
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  EXPECT_EQ(MineToCsv(reader->db(), reader->taxonomy(), reader->dict(), 1),
            MineToCsv(data.db, data.taxonomy, data.dict, 1));
}

TEST(StorageAppend, EmptyAppendSessionCommitsCleanly) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_empty.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  const std::string base_csv =
      MineToCsv(data.db, data.taxonomy, data.dict, 1);
  AppendSession(path, data, data.db.size(), data.db.size());

  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->db().size(), data.db.size());
  EXPECT_EQ(reader->header().section_count, storage::kNumSectionsV1 + 2);
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  EXPECT_EQ(MineToCsv(reader->db(), reader->taxonomy(), reader->dict(), 1),
            base_csv);
}

TEST(StorageAppend, DictionaryGrowthPersists) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_dict_grow.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);

  ItemDictionary grown = data.dict;
  const ItemId new_id = grown.Intern("zz_brand_new_name");
  EXPECT_EQ(new_id, grown.size() - 1);
  {
    auto writer = storage::StoreWriter::OpenAppend(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(data.db.Get(0)).ok());
    ASSERT_TRUE(writer->Finish(grown, data.taxonomy).ok());
  }
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->dict().size(), grown.size());
  EXPECT_EQ(reader->dict().Name(new_id), "zz_brand_new_name");
}

TEST(StorageAppend, MutatedDictionaryIsRejectedAndRolledBack) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_dict_mutate.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  const std::string base_bytes = ReadFileBytes(path);

  // Same size, different names: committed ids would change meaning.
  ItemDictionary renamed;
  for (ItemId id = 0; id < data.dict.size(); ++id) {
    renamed.Intern("renamed_" + std::to_string(id));
  }
  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append(data.db.Get(0)).ok());
  const Status finished = writer->Finish(renamed, data.taxonomy);
  ASSERT_FALSE(finished.ok());
  EXPECT_NE(finished.message().find("extend"), std::string::npos)
      << finished;
  // The failed session rolled the file back to the base store.
  EXPECT_EQ(ReadFileBytes(path), base_bytes);
  EXPECT_TRUE(storage::StoreReader::Open(path).ok());
  // And the writer refuses further use.
  EXPECT_FALSE(writer->Append(data.db.Get(0)).ok());
}

/// Runs one append session on `path` (one transaction of `data`) that
/// finishes with `dict` and `taxonomy`, and requires Finish to refuse
/// it with exactly `message` and roll the file back byte for byte.
void ExpectPrefixRefusal(const std::string& path,
                         const testutil::Dataset& data,
                         const ItemDictionary& dict,
                         const Taxonomy& taxonomy,
                         const std::string& message) {
  const std::string base_bytes = ReadFileBytes(path);
  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append(data.db.Get(0)).ok());
  const Status finished = writer->Finish(dict, taxonomy);
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(finished.message(), message + ": " + path);
  EXPECT_EQ(ReadFileBytes(path), base_bytes);
}

TEST(StorageAppend, ShrunkDictionaryIsRejected) {
  // The base commits one name beyond the taxonomy and the items, so a
  // session can drop it without failing the earlier size checks.
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_dict_shrunk.fdb");
  ItemDictionary grown = data.dict;
  grown.Intern("zz_committed_name");
  {
    auto writer = storage::StoreWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (TxnId t = 0; t < data.db.size(); ++t) {
      ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
    }
    ASSERT_TRUE(writer->Finish(grown, data.taxonomy).ok());
  }
  ExpectPrefixRefusal(path, data, data.dict, data.taxonomy,
                      "append sessions may only extend the dictionary: "
                      "it shrank from 15 to 14 names");
}

TEST(StorageAppend, RenamedLastCommittedNameIsRejected) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_dict_last.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  ItemDictionary renamed;
  for (ItemId id = 0; id + 1 < data.dict.size(); ++id) {
    renamed.Intern(data.dict.Name(id));
  }
  renamed.Intern("b22_renamed");
  ExpectPrefixRefusal(path, data, renamed, data.taxonomy,
                      "append sessions may only extend the dictionary: "
                      "the name of id 13 changed from \"b22\" to "
                      "\"b22_renamed\"");
}

TEST(StorageAppend, ChangedTaxonomyParentIsRejected) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_tax_parent.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  // The toy taxonomy with a12 (id 7) moved from a1 to a2.
  const ItemId a12 = *data.dict.Find("a12");
  const ItemId a2 = *data.dict.Find("a2");
  TaxonomyBuilder builder;
  for (const ItemId root : data.taxonomy.Level1()) builder.AddRoot(root);
  for (ItemId id = 0; id < data.taxonomy.id_space(); ++id) {
    const ItemId parent = id == a12 ? a2 : data.taxonomy.ParentOf(id);
    if (parent != kInvalidItem) {
      ASSERT_TRUE(builder.AddEdge(parent, id).ok());
    }
  }
  auto moved = builder.Build();
  ASSERT_TRUE(moved.ok()) << moved.status();
  ExpectPrefixRefusal(path, data, data.dict, *moved,
                      "append sessions may only extend the taxonomy: the "
                      "parent of id 7 changed");
}

TEST(StorageAppend, ThreeSessionsOpenToTheBulkWrittenDb) {
  const testutil::Dataset data =
      testutil::RandomDataset(2024, 4, 2, 3, 200, 7);
  const std::string appended_path = TempPath("append_three.fdb");
  const std::string bulk_path = TempPath("append_three_bulk.fdb");
  WriteBaseStore(appended_path, data, 50, /*segment_txns=*/32);
  AppendSession(appended_path, data, 50, 120);
  AppendSession(appended_path, data, 120, 120);  // empty session
  AppendSession(appended_path, data, 120, 200);
  ASSERT_TRUE(storage::WriteStoreFile(bulk_path, data.db, data.dict,
                                      data.taxonomy)
                  .ok());

  for (const bool heap : {false, true}) {
    storage::OpenOptions options;
    options.force_heap = heap;
    auto appended = storage::StoreReader::Open(appended_path, options);
    auto bulk = storage::StoreReader::Open(bulk_path, options);
    ASSERT_TRUE(appended.ok()) << appended.status();
    ASSERT_TRUE(bulk.ok()) << bulk.status();
    EXPECT_EQ(appended->header().section_count,
              storage::kNumSectionsV1 + 6);
    EXPECT_EQ(bulk->header().section_count, storage::kNumSectionsV1);
    EXPECT_TRUE(appended->VerifyChecksums().ok());
    const TransactionDb& a = appended->db();
    const TransactionDb& b = bulk->db();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.total_items(), b.total_items());
    EXPECT_EQ(a.alphabet_size(), b.alphabet_size());
    EXPECT_EQ(a.max_width(), b.max_width());
    for (TxnId t = 0; t < a.size(); ++t) {
      const auto x = a.Get(t);
      const auto y = b.Get(t);
      ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
          << "txn " << t;
    }
    // Trusted opens concatenate the same way.
    storage::OpenOptions trusting = options;
    trusting.validate = false;
    auto trusted = storage::StoreReader::Open(appended_path, trusting);
    ASSERT_TRUE(trusted.ok()) << trusted.status();
    EXPECT_EQ(trusted->db().total_items(), b.total_items());
  }
}

/// The toy store written as 6 transactions plus one 4-transaction
/// append session: two raw column block pairs, the section table in
/// the commit trailer.
std::string MakeAppendedToyStore(const std::string& tag) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath(tag + ".fdb");
  WriteBaseStore(path, data, 6, /*segment_txns=*/4);
  AppendSession(path, data, 6, data.db.size());
  EXPECT_TRUE(storage::StoreReader::Open(path).ok());
  return path;
}

/// Opens `bytes` (checksums fixed) validated and trusted; both must
/// fail with CorruptedData naming `what`.
void ExpectCorruptBlocks(const std::string& tag, std::string bytes,
                         const std::string& what) {
  FixChecksums(&bytes);
  const std::string path = TempPath(tag + "_corrupt.fdb");
  WriteFileBytes(path, bytes);
  storage::OpenOptions trusting;
  trusting.validate = false;
  for (const bool validate : {true, false}) {
    auto reader = storage::StoreReader::Open(
        path, validate ? storage::OpenOptions{} : trusting);
    ASSERT_FALSE(reader.ok()) << what << " validate=" << validate;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
    EXPECT_NE(reader.status().message().find(what), std::string::npos)
        << reader.status();
  }
}

TEST(StorageAppendCorruption, UnpairedBlocksFail) {
  std::string bytes = ReadFileBytes(MakeAppendedToyStore("raw_unpaired"));
  const auto items = BlocksOf(&bytes, storage::SectionId::kTxnItems);
  ASSERT_EQ(items.size(), 2u);
  items[1]->id = static_cast<uint32_t>(storage::SectionId::kTxnOffsets);
  ExpectCorruptBlocks("raw_unpaired", bytes, "unpaired");
}

TEST(StorageAppendCorruption, OffsetsBlockMustContinueItsPredecessor) {
  std::string bytes =
      ReadFileBytes(MakeAppendedToyStore("raw_discontinuous"));
  const auto offsets = BlocksOf(&bytes, storage::SectionId::kTxnOffsets);
  ASSERT_EQ(offsets.size(), 2u);
  // Shift the whole second block: it still spans as many items as its
  // items block holds, but no longer starts where block 0 ended.
  for (uint64_t i = 0; i < offsets[1]->size / sizeof(uint64_t); ++i) {
    uint64_t value = 0;
    char* at = bytes.data() + offsets[1]->offset + i * sizeof(uint64_t);
    std::memcpy(&value, at, sizeof(value));
    value += 1;
    std::memcpy(at, &value, sizeof(value));
  }
  ExpectCorruptBlocks("raw_discontinuous", bytes,
                      "does not continue its predecessor");
}

TEST(StorageAppendCorruption, BlockCutInsideATransactionFails) {
  std::string bytes = ReadFileBytes(MakeAppendedToyStore("raw_cut"));
  const auto items = BlocksOf(&bytes, storage::SectionId::kTxnItems);
  ASSERT_EQ(items.size(), 2u);
  // Block 0 loses the last item of its last transaction.
  items[0]->size -= sizeof(ItemId);
  ExpectCorruptBlocks("raw_cut", bytes,
                      "does not end on a transaction boundary");
}

TEST(StorageVersion, VersionTwoIsRefusedByEveryOpen) {
  // A fresh store and an appended one (whose commit trailer claims the
  // version too): Open (mmap and heap), OpenPrefix and OpenAppend each
  // refuse it with the one version text and leave the file as it was.
  const std::string sources[] = {MakeToyStore("refuse_fresh"),
                                 MakeAppendedToyStore("refuse_appended")};
  for (const std::string& source : sources) {
    const std::string path =
        MakeVersionTwoStore(source, fs::path(source).stem().string());
    SCOPED_TRACE(path);
    const std::string bytes = ReadFileBytes(path);
    const std::string refusal = VersionTwoRefusal(path);
    for (const bool heap : {false, true}) {
      storage::OpenOptions options;
      options.force_heap = heap;
      auto reader = storage::StoreReader::Open(path, options);
      ASSERT_FALSE(reader.ok()) << "heap=" << heap;
      EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(reader.status().message(), refusal) << "heap=" << heap;
    }

    storage::PrefixInfo info;
    auto prefix = storage::StoreReader::OpenPrefix(path, &info);
    ASSERT_FALSE(prefix.ok());
    EXPECT_EQ(prefix.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(prefix.status().message().find(refusal), std::string::npos)
        << prefix.status();

    auto writer = storage::StoreWriter::OpenAppend(path);
    ASSERT_FALSE(writer.ok());
    EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(writer.status().message(),
              "cannot append to " + path + ": " + refusal);
    EXPECT_EQ(ReadFileBytes(path), bytes);
  }
}

TEST(StorageAppend, TornStoreRefusesAppendUntilRepaired) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_torn.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  const std::string base_bytes = ReadFileBytes(path);
  WriteFileBytes(path, base_bytes + std::string(33, 'x'));

  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_FALSE(writer.ok());
  EXPECT_NE(writer.status().message().find("repair"), std::string::npos)
      << writer.status();
}

TEST(StorageAppend, RepairIsSuggestedOnlyWhenItCanRestoreTheStore) {
  const std::string hint = "run `flipper_cli repair ";
  const auto refusal = [](const std::string& path) {
    auto writer = storage::StoreWriter::OpenAppend(path);
    EXPECT_FALSE(writer.ok());
    return writer.ok() ? std::string() : writer.status().message();
  };
  const auto repair_exit = [](const std::string& path) {
    std::ostringstream out;
    std::ostringstream err;
    const char* argv[] = {"flipper_cli", "repair", path.c_str()};
    return RunFlipperCli(3, argv, out, err);
  };

  // A torn tail: repair truncates it.
  const std::string torn = MakeAppendedToyStore("hint_torn");
  WriteFileBytes(torn, ReadFileBytes(torn) + std::string(21, 'x'));
  EXPECT_NE(refusal(torn).find(hint + torn), std::string::npos);
  EXPECT_EQ(repair_exit(torn), 0);

  // A torn front header before an intact commit trailer: repair
  // rewrites it.
  const std::string stale = MakeAppendedToyStore("hint_front");
  std::string bytes = ReadFileBytes(stale);
  bytes[sizeof(storage::FileHeader) / 2] ^= 0x40;
  WriteFileBytes(stale, bytes);
  EXPECT_NE(refusal(stale).find(hint + stale), std::string::npos);
  EXPECT_EQ(repair_exit(stale), 0);

  // A zeroed item makes txn 1 unsorted in the committed payload itself:
  // repair cannot help, so none is suggested.
  const std::string flipped = MakeToyStore("hint_flipped");
  bytes = ReadFileBytes(flipped);
  const auto* items = SectionOf(&bytes, storage::SectionId::kTxnItems);
  const uint32_t zero = 0;
  std::memcpy(bytes.data() + items->offset + 5 * sizeof(ItemId), &zero,
              sizeof(zero));  // txn 1 = {a11, a21, b11} -> {a11, 0, b11}
  FixChecksums(&bytes);
  WriteFileBytes(flipped, bytes);
  const std::string message = refusal(flipped);
  EXPECT_EQ(message.find(hint), std::string::npos) << message;
  EXPECT_NE(message.find("items of txn 1 are not sorted and duplicate-free"
                         " — the committed payload fails validation"),
            std::string::npos)
      << message;
  EXPECT_EQ(repair_exit(flipped), 3);
  EXPECT_EQ(ReadFileBytes(flipped), bytes);
}


// --- The v1 item check: exact texts, block edges, mutation sweep ------

/// The v1 item check as one per-transaction loop over the whole column
/// (the reader's check before it became a per-block pass). The mutation
/// sweep holds the reader to it.
Status ReferenceItemCheck(std::span<const uint64_t> offsets,
                          std::span<const ItemId> items,
                          ItemId alphabet_size) {
  ItemId max_item = 0;
  bool any_item = false;
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    const uint64_t lo = offsets[t];
    const uint64_t hi = offsets[t + 1];
    for (uint64_t i = lo; i < hi; ++i) {
      const ItemId item = items[i];
      if (item >= alphabet_size) {
        return Status::CorruptedData(
            "store file: item id " + std::to_string(item) +
            " out of range in txn " + std::to_string(t));
      }
      if (i > lo && items[i - 1] >= item) {
        return Status::CorruptedData("store file: items of txn " +
                                     std::to_string(t) +
                                     " are not sorted and duplicate-free");
      }
      max_item = std::max(max_item, item);
      any_item = true;
    }
  }
  const ItemId actual_alphabet = any_item ? max_item + 1 : 0;
  if (actual_alphabet != alphabet_size) {
    return Status::CorruptedData(
        "store file: alphabet_size mismatch: header records " +
        std::to_string(alphabet_size) + ", data has " +
        std::to_string(actual_alphabet));
  }
  return Status::OK();
}

/// The logical column of a v1 file: its offsets blocks and items blocks
/// concatenated in table order.
std::vector<uint64_t> ColumnOffsetsOf(std::string* bytes) {
  std::vector<uint64_t> offsets;
  for (const auto* block :
       BlocksOf(bytes, storage::SectionId::kTxnOffsets)) {
    const size_t count = block->size / sizeof(uint64_t);
    for (size_t i = offsets.empty() ? 0 : 1; i < count; ++i) {
      uint64_t value = 0;
      std::memcpy(&value,
                  bytes->data() + block->offset + i * sizeof(uint64_t),
                  sizeof(value));
      offsets.push_back(value);
    }
  }
  return offsets;
}

std::vector<ItemId> ColumnItemsOf(std::string* bytes) {
  std::vector<ItemId> items;
  for (const auto* block : BlocksOf(bytes, storage::SectionId::kTxnItems)) {
    const size_t count = block->size / sizeof(ItemId);
    const size_t at = items.size();
    items.resize(at + count);
    std::memcpy(items.data() + at, bytes->data() + block->offset,
                count * sizeof(ItemId));
  }
  return items;
}

/// Overwrites item `position` of the logical column (checksums are
/// left stale; FixChecksums restores them).
void SetColumnItem(std::string* bytes, uint64_t position, ItemId value) {
  for (const auto* block : BlocksOf(bytes, storage::SectionId::kTxnItems)) {
    const uint64_t count = block->size / sizeof(ItemId);
    if (position < count) {
      std::memcpy(bytes->data() + block->offset + position * sizeof(ItemId),
                  &value, sizeof(value));
      return;
    }
    position -= count;
  }
  FAIL() << "item position past the column";
}

/// Writes `txns` as a fresh store of its first `cuts[0]` transactions
/// plus one append session per further cut (the last cut is the end),
/// with `names`' dictionary and taxonomy.
std::string WriteSessions(const std::string& tag,
                          const std::vector<std::vector<ItemId>>& txns,
                          const std::vector<size_t>& cuts,
                          const testutil::Dataset& names) {
  const std::string path = TempPath(tag + ".fdb");
  for (size_t c = 0; c < cuts.size(); ++c) {
    auto writer = c == 0 ? storage::StoreWriter::Create(path)
                         : storage::StoreWriter::OpenAppend(path);
    EXPECT_TRUE(writer.ok()) << writer.status();
    if (!writer.ok()) return path;
    for (size_t t = c == 0 ? 0 : cuts[c - 1]; t < cuts[c]; ++t) {
      EXPECT_TRUE(writer->Append(txns[t]).ok());
    }
    EXPECT_TRUE(writer->Finish(names.dict, names.taxonomy).ok());
  }
  return path;
}

/// Transactions over the toy dictionary's leaves 6..12 (its last leaf,
/// 13, stays unused so the header alphabet can be raised by one).
/// Written as three blocks (a fresh store and two append sessions)
/// whose edges are empty transactions. Adjacent items descend across
/// transactions (9 >= 7; 10 >= 6 across an empty transaction; 12 >= 7),
/// which the check must accept:
///   block 0: txns 0-2  {6,9} {7,8,12} {}
///   block 1: txns 3-7  {} {8,10} {} {6,11} {}
///   block 2: txns 8-12 {} {} {9,12} {7} {6,8,10}
std::string WriteEdgeStore(const std::string& tag) {
  const std::vector<std::vector<ItemId>> txns = {
      {6, 9}, {7, 8, 12}, {},                //
      {}, {8, 10}, {}, {6, 11}, {},          //
      {}, {}, {9, 12}, {7}, {6, 8, 10}};
  return WriteSessions(tag, txns, {3, 8, 13}, testutil::PaperToyDataset());
}

/// Where a transaction's first item sits in the edge store's column.
constexpr uint64_t kEdgeTxn1 = 2;    // {7,8,12}
constexpr uint64_t kEdgeTxn4 = 5;    // {8,10}
constexpr uint64_t kEdgeTxn6 = 7;    // {6,11}
constexpr uint64_t kEdgeTxn10 = 9;   // {9,12}
constexpr uint64_t kEdgeTxn12 = 12;  // {6,8,10}

/// Writes `bytes` (checksums fixed) and requires every validated path
/// to refuse it with exactly `message`: Open (mmap and heap),
/// StoreWriter::OpenAppend (which must leave the file byte-identical
/// and suggest no repair) and `flipper_cli validate`.
void ExpectItemCheckFailure(const std::string& tag, std::string bytes,
                            const std::string& message) {
  SCOPED_TRACE(tag);
  FixChecksums(&bytes);
  const std::string path = TempPath(tag + "_corrupt.fdb");
  WriteFileBytes(path, bytes);
  for (const bool heap : {false, true}) {
    storage::OpenOptions options;
    options.force_heap = heap;
    auto reader = storage::StoreReader::Open(path, options);
    ASSERT_FALSE(reader.ok()) << "heap=" << heap;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
    EXPECT_EQ(reader.status().message(), "store file: " + message)
        << "heap=" << heap;
  }

  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kCorruptedData);
  EXPECT_EQ(writer.status().message(),
            "cannot append to " + path + ": store file: " + message +
                " — the committed payload fails validation, so no repair "
                "can restore it");
  EXPECT_EQ(ReadFileBytes(path), bytes);

  std::ostringstream cli_out;
  std::ostringstream cli_err;
  const char* argv[] = {"flipper_cli", "validate", path.c_str(), "--quiet"};
  EXPECT_EQ(RunFlipperCli(4, argv, cli_out, cli_err), 3) << cli_err.str();
  EXPECT_NE(cli_out.str().find("UNRECOVERABLE — store file: " + message),
            std::string::npos)
      << cli_out.str();
}

TEST(StorageItemCheck, EmptyTransactionsAtBlockEdgesPass) {
  const std::string path = WriteEdgeStore("items_edges");
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(BlocksOf(&bytes, storage::SectionId::kTxnItems).size(), 3u);
  const std::vector<uint64_t> offsets = ColumnOffsetsOf(&bytes);
  const std::vector<ItemId> items = ColumnItemsOf(&bytes);
  ASSERT_EQ(offsets.size(), 14u);
  ASSERT_TRUE(
      ReferenceItemCheck(offsets, items, HeaderOf(&bytes)->alphabet_size)
          .ok());
  for (const bool heap : {false, true}) {
    storage::OpenOptions options;
    options.force_heap = heap;
    auto reader = storage::StoreReader::Open(path, options);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ(reader->db().size(), 13u);
    EXPECT_EQ(reader->db().alphabet_size(), 13u);
    EXPECT_TRUE(reader->db().Get(8).empty());
    EXPECT_EQ(reader->db().Get(12).size(), 3u);
  }
  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
}

TEST(StorageItemCheck, UnsortedPairNamesItsTransaction) {
  std::string bytes = ReadFileBytes(WriteEdgeStore("items_unsorted"));
  SetColumnItem(&bytes, kEdgeTxn1, 8);
  SetColumnItem(&bytes, kEdgeTxn1 + 1, 7);  // {8,7,12}
  ExpectItemCheckFailure("items_unsorted", bytes,
                         "items of txn 1 are not sorted and "
                         "duplicate-free");
}

TEST(StorageItemCheck, DuplicatePairAfterEmptyTransactionsAtABlockStart) {
  std::string bytes = ReadFileBytes(WriteEdgeStore("items_duplicate"));
  SetColumnItem(&bytes, kEdgeTxn4 + 1, 8);  // {8,8}
  ExpectItemCheckFailure("items_duplicate", bytes,
                         "items of txn 4 are not sorted and "
                         "duplicate-free");
}

TEST(StorageItemCheck, DuplicatePairBeforeEmptyTransactionsAtABlockEnd) {
  std::string bytes = ReadFileBytes(WriteEdgeStore("items_block_end"));
  SetColumnItem(&bytes, kEdgeTxn6, 11);  // {11,11}
  ExpectItemCheckFailure("items_block_end", bytes,
                         "items of txn 6 are not sorted and "
                         "duplicate-free");
}

TEST(StorageItemCheck, HeaderAlphabetAboveTheData) {
  std::string bytes = ReadFileBytes(WriteEdgeStore("items_alpha_high"));
  ASSERT_EQ(HeaderOf(&bytes)->alphabet_size, 13u);
  ASSERT_GE(HeaderOf(&bytes)->dict_size, 14u);
  HeaderOf(&bytes)->alphabet_size = 14;
  ExpectItemCheckFailure("items_alpha_high", bytes,
                         "alphabet_size mismatch: header records 14, "
                         "data has 13");
}

TEST(StorageItemCheck, HeaderAlphabetBelowTheData) {
  // Item 12 is now out of range; txn 1 is the first to hold it.
  std::string bytes = ReadFileBytes(WriteEdgeStore("items_alpha_low"));
  HeaderOf(&bytes)->alphabet_size = 12;
  ExpectItemCheckFailure("items_alpha_low", bytes,
                         "item id 12 out of range in txn 1");
}

TEST(StorageItemCheck, FailureInTheThirdBlockNamesTheGlobalTransaction) {
  std::string out_of_range =
      ReadFileBytes(WriteEdgeStore("items_third_range"));
  SetColumnItem(&out_of_range, kEdgeTxn10 + 1, 40);  // {9,40}
  ExpectItemCheckFailure("items_third_range", out_of_range,
                         "item id 40 out of range in txn 10");

  std::string unsorted = ReadFileBytes(WriteEdgeStore("items_third_sort"));
  SetColumnItem(&unsorted, kEdgeTxn12 + 2, 8);  // {6,8,8}
  ExpectItemCheckFailure("items_third_sort", unsorted,
                         "items of txn 12 are not sorted and "
                         "duplicate-free");

  // The lowest failing transaction wins across blocks.
  std::string both = ReadFileBytes(WriteEdgeStore("items_third_both"));
  SetColumnItem(&both, kEdgeTxn12 + 2, 8);
  SetColumnItem(&both, kEdgeTxn10 + 1, 9);  // {9,9}
  ExpectItemCheckFailure("items_third_both", both,
                         "items of txn 10 are not sorted and "
                         "duplicate-free");
}

TEST(StorageItemCheck, MutationSweepMatchesThePerTransactionLoop) {
  // A fresh store and three append sessions. Blocks 0 and 2 hold random
  // transactions with an empty one after every fifth; blocks 1 and 3
  // are staircases (every item above its predecessor, so no adjacent
  // pair descends across transactions) of more than 64 items, so that
  // both the chunked loop and its remainder see the mutations. Blocks
  // start and end on empty transactions.
  const testutil::Dataset data =
      testutil::RandomDataset(515, 6, 4, 3, 25, 5);
  ASSERT_GE(data.dict.size(), 100u);
  std::vector<std::vector<ItemId>> txns;
  const auto add_random = [&](TxnId from, TxnId to) {
    for (TxnId t = from; t < to; ++t) {
      const auto items = data.db.Get(t);
      txns.emplace_back(items.begin(), items.end());
      if (t % 5 == 4) txns.emplace_back();
    }
  };
  add_random(0, 10);  // txns 0-11, ending on an empty one
  const size_t cut0 = txns.size();
  for (ItemId x = 0; x + 3 <= 99; x += 3) txns.push_back({x, x + 1, x + 2});
  const size_t cut1 = txns.size();
  txns.emplace_back();  // block 2 starts on an empty transaction
  add_random(10, 25);
  const size_t cut2 = txns.size();
  for (ItemId x = 0; x + 2 <= 80; x += 2) {
    txns.push_back({x, x + 1});
    if (x % 8 == 6) txns.emplace_back();
  }
  ASSERT_TRUE(txns[cut0 - 1].empty() && txns[cut1].empty() &&
              txns[cut2 - 1].empty() && txns.back().empty());
  const std::string path =
      WriteSessions("items_sweep", txns, {cut0, cut1, cut2, txns.size()},
                    data);
  const std::string clean = ReadFileBytes(path);
  std::string bytes = clean;
  ASSERT_EQ(BlocksOf(&bytes, storage::SectionId::kTxnItems).size(), 4u);
  const std::vector<uint64_t> offsets = ColumnOffsetsOf(&bytes);
  const std::vector<ItemId> items = ColumnItemsOf(&bytes);
  const ItemId alphabet = HeaderOf(&bytes)->alphabet_size;
  ASSERT_TRUE(ReferenceItemCheck(offsets, items, alphabet).ok());

  const std::string work = TempPath("items_sweep_work.fdb");
  size_t refused = 0;
  for (uint64_t i = 0; i < items.size(); ++i) {
    std::vector<ItemId> values = {alphabet};  // out of range
    if (i > 0) {
      values.push_back(items[i - 1]);  // equal to the predecessor
      if (items[i - 1] > 0) values.push_back(items[i - 1] - 1);  // below
    }
    for (const ItemId value : values) {
      SCOPED_TRACE("item " + std::to_string(i) + " := " +
                   std::to_string(value));
      std::vector<ItemId> mutated = items;
      mutated[i] = value;
      const Status expected = ReferenceItemCheck(offsets, mutated, alphabet);
      bytes = clean;
      SetColumnItem(&bytes, i, value);
      FixChecksums(&bytes);
      WriteFileBytes(work, bytes);
      for (const bool heap : {false, true}) {
        storage::OpenOptions options;
        options.force_heap = heap;
        auto reader = storage::StoreReader::Open(work, options);
        ASSERT_EQ(reader.status().code(), expected.code())
            << "heap=" << heap << ": " << reader.status();
        ASSERT_EQ(reader.status().message(), expected.message())
            << "heap=" << heap;
      }
      {
        auto writer = storage::StoreWriter::OpenAppend(work);
        ASSERT_EQ(writer.ok(), expected.ok()) << writer.status();
        if (!writer.ok()) {
          ++refused;
          EXPECT_EQ(writer.status().code(), StatusCode::kCorruptedData);
        }
      }  // an accepted session is dropped unfinished
      ASSERT_EQ(ReadFileBytes(work), bytes);
    }
  }
  EXPECT_GT(refused, items.size());  // every out-of-range item, and more
}

}  // namespace
}  // namespace flipper
