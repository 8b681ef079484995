// Byte-level crash-recovery sweep for the FlipperStore commit
// protocol. The fault-injection FileSystem (storage/file_io.h) kills
// the write stream at EVERY byte offset of a fresh-store write and of
// a raw (v1) append session; after each simulated crash the file must come
// back — via AnalyzeStore/ApplyRepair — to exactly the last committed
// state, byte for byte:
//
//   - fault before the commit trailer is complete  -> the base store
//   - fault at/after the trailer (front header rewrite torn or
//     skipped) -> the appended store
//
// and the recovered store must mine identically to the oracle for its
// state. The append sweep runs on a fresh base and on a base that
// already holds two sessions, and after every repair one more append
// session must commit. A fresh-store crash must never leave anything
// at the final path (temp file + rename). The kFailOp mode (recoverable I/O errors
// instead of a process crash) additionally requires the writer's own
// cleanup to run: no stray temp file, append sessions rolled back to
// the base bytes — unless the commit point already passed, in which
// case the data must be kept and only the front header repaired.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "storage/file_io.h"
#include "storage/recovery.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "test_util.h"

namespace flipper {
namespace {

namespace fs = std::filesystem;
using storage::FaultInjectingFileSystem;
using storage::FaultMode;
using storage::FaultPlan;
using storage::RepairPlan;
using storage::StoreReader;
using storage::StoreWriter;

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

/// Deterministic mining result of a store file, as the CSV export.
/// The thresholds find flipping patterns in both the base and the
/// appended scenario stores, and different ones, so comparing CSVs
/// tells the two states apart (checked in SweepAppendCrashes).
std::string MineCsv(const std::string& path) {
  auto reader = StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return "<open failed>";
  MiningConfig config;
  config.gamma = 0.3;
  config.epsilon = 0.2;
  config.min_support = {0.05, 0.05, 0.05};
  config.num_threads = 1;
  auto run = FlipperMiner::Run(reader->db(), reader->taxonomy(), config);
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return "<mine failed>";
  std::ostringstream oss;
  EXPECT_TRUE(WritePatternsCsv(run->patterns, &reader->dict(), oss).ok());
  return oss.str();
}

/// The shared scenario: a small random dataset split into a base
/// store and one appended batch, with segments small enough that both
/// parts span several.
struct Scenario {
  testutil::Dataset data;
  uint64_t base_txns = 0;
  /// Where earlier append sessions cut the base: the base store is a
  /// fresh write of its first `base_cuts[0]` transactions plus one
  /// session per further cut (the last cut is base_txns).
  std::vector<uint64_t> base_cuts;
  StoreWriter::Options base_options;

  Scenario() : data(testutil::RandomDataset(/*seed=*/77, 3, 2, 2, 48, 5)) {
    base_txns = 32;
    base_cuts = {base_txns};
    base_options.segment_txns = 8;
  }

  void WriteBase(const std::string& path) const {
    for (size_t c = 0; c < base_cuts.size(); ++c) {
      auto writer = c == 0 ? StoreWriter::Create(path, base_options)
                           : StoreWriter::OpenAppend(path);
      ASSERT_TRUE(writer.ok()) << writer.status();
      for (uint64_t t = c == 0 ? 0 : base_cuts[c - 1]; t < base_cuts[c];
           ++t) {
        ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
      }
      ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
    }
  }

  /// Runs the whole append session against `fault_fs`; returns the
  /// first non-OK status (OK if everything succeeded).
  Status RunAppend(const std::string& path,
                   FaultInjectingFileSystem* fault_fs) const {
    auto writer = StoreWriter::OpenAppend(path, fault_fs);
    FLIPPER_RETURN_IF_ERROR(writer.status());
    for (uint64_t t = base_txns; t < data.db.size(); ++t) {
      FLIPPER_RETURN_IF_ERROR(writer->Append(data.db.Get(t)));
    }
    return writer->Finish(data.dict, data.taxonomy);
  }
};

/// Repairs `path` and requires a clean validated reopen afterwards.
void RepairAndVerify(const std::string& path) {
  auto plan = storage::AnalyzeStore(path);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE(plan->action, RepairPlan::Action::kUnrecoverable)
      << plan->detail;
  ASSERT_TRUE(storage::ApplyRepair(path, *plan).ok());
}

// --- The headline sweep: crash at every byte of an append session. --

/// One more append session after a repair: the first eight transactions
/// again, through the real filesystem.
void AppendFollowUp(const Scenario& scenario, const std::string& path) {
  auto writer = StoreWriter::OpenAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (TxnId t = 0; t < 8; ++t) {
    ASSERT_TRUE(writer->Append(scenario.data.db.Get(t)).ok());
  }
  ASSERT_TRUE(writer->Finish(scenario.data.dict, scenario.data.taxonomy)
                  .ok());
}

/// Crashes the scenario's append session after every byte it writes.
/// After each crash, repair must restore exactly the base store (before
/// the commit point) or the appended store (after it); then one more
/// append session must commit on the repaired file, which must mine
/// like the same session on a clean copy.
void SweepAppendCrashes(const Scenario& scenario, const std::string& tag) {
  const std::string base_path = TempPath(tag + "_base.fdb");
  const std::string work_path = TempPath(tag + "_work.fdb");
  scenario.WriteBase(base_path);
  const std::string base_bytes = ReadFileBytes(base_path);
  const uint64_t base_sections =
      storage::kNumSectionsV1 + 2 * (scenario.base_cuts.size() - 1);

  // Clean run: measure the session's total write volume W and capture
  // the committed result (the oracle for post-commit faults).
  FaultInjectingFileSystem fault_fs;
  fault_fs.set_plan(FaultPlan{});
  WriteFileBytes(work_path, base_bytes);
  ASSERT_TRUE(scenario.RunAppend(work_path, &fault_fs).ok());
  const uint64_t total_bytes = fault_fs.bytes_written();
  ASSERT_GT(total_bytes, sizeof(storage::FileHeader));
  const std::string committed_bytes = ReadFileBytes(work_path);
  ASSERT_NE(committed_bytes, base_bytes);
  {
    // The session added one raw column block pair.
    auto committed = StoreReader::Open(work_path);
    ASSERT_TRUE(committed.ok()) << committed.status();
    ASSERT_EQ(committed->version(), storage::kFormatVersionV1);
    ASSERT_EQ(committed->header().section_count, base_sections + 2);
  }

  const std::string base_csv = MineCsv(base_path);
  const std::string committed_csv = MineCsv(work_path);
  // A header line plus at least one pattern row each, and different
  // answers: otherwise the mining checks below could not tell a
  // restored base from a kept append.
  ASSERT_GE(std::count(base_csv.begin(), base_csv.end(), '\n'), 2)
      << base_csv;
  ASSERT_GE(std::count(committed_csv.begin(), committed_csv.end(), '\n'), 2)
      << committed_csv;
  ASSERT_NE(base_csv, committed_csv);
  // What either state holds and mines after the follow-up session.
  std::string follow_bytes[2];
  std::string follow_csv[2];
  for (const bool committed : {false, true}) {
    WriteFileBytes(work_path, committed ? committed_bytes : base_bytes);
    AppendFollowUp(scenario, work_path);
    follow_bytes[committed] = ReadFileBytes(work_path);
    follow_csv[committed] = MineCsv(work_path);
  }

  // The last 104 bytes of the session are the front-header rewrite;
  // everything before completes the commit trailer.
  const uint64_t commit_point = total_bytes - sizeof(storage::FileHeader);
  for (uint64_t k = 0; k < total_bytes; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " +
                 std::to_string(total_bytes) + " bytes");
    WriteFileBytes(work_path, base_bytes);
    FaultPlan plan;
    plan.write_budget = k;
    plan.mode = FaultMode::kCrash;
    fault_fs.set_plan(plan);
    const Status crashed = scenario.RunAppend(work_path, &fault_fs);
    ASSERT_FALSE(crashed.ok());
    ASSERT_TRUE(fault_fs.triggered());

    RepairAndVerify(work_path);
    const std::string& expected =
        k < commit_point ? base_bytes : committed_bytes;
    ASSERT_EQ(ReadFileBytes(work_path), expected)
        << (k < commit_point ? "pre-commit crash must restore the base "
                               "store"
                             : "post-commit crash must keep the "
                               "appended store");
    // Byte equality already implies mining equality; spot-check the
    // full pipeline around the commit point and periodically.
    if (k % 64 == 0 || k + 3 * sizeof(storage::FileHeader) > total_bytes) {
      ASSERT_EQ(MineCsv(work_path),
                k < commit_point ? base_csv : committed_csv);
    }
    // Repair must be idempotent: analyzing again finds a clean file.
    auto replan = storage::AnalyzeStore(work_path);
    ASSERT_TRUE(replan.ok());
    ASSERT_EQ(replan->action, RepairPlan::Action::kNone);

    // And the repaired store takes the next session.
    AppendFollowUp(scenario, work_path);
    ASSERT_EQ(ReadFileBytes(work_path), follow_bytes[k >= commit_point]);
    ASSERT_EQ(MineCsv(work_path), follow_csv[k >= commit_point]);
  }
}

TEST(CrashRecovery, AppendCrashAtEveryByteOffset) {
  SweepAppendCrashes(Scenario(), "crash_append");
}

TEST(CrashRecovery, AppendCrashOnAnAppendedBaseAtEveryByteOffset) {
  // The base already carries two sessions (three column block pairs),
  // so OpenAppend checks several blocks in place before each crash and
  // after each repair.
  Scenario scenario;
  scenario.base_cuts = {16, 24, scenario.base_txns};
  SweepAppendCrashes(scenario, "crash_append_appended");
}

// --- Crash at every byte of a fresh-store write. ---------------------

TEST(CrashRecovery, FreshWriteCrashNeverTouchesFinalPath) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("crash_fresh.fdb");
  const std::string temp = path + ".tmp";
  StoreWriter::Options options;
  options.segment_txns = 4;

  // Clean run to measure W.
  FaultInjectingFileSystem fault_fs;
  fault_fs.set_plan(FaultPlan{});
  fs::remove(path);
  ASSERT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy, options, &fault_fs)
                  .ok());
  const uint64_t total_bytes = fault_fs.bytes_written();
  const std::string committed_bytes = ReadFileBytes(path);
  ASSERT_FALSE(fs::exists(temp));

  for (uint64_t k = 0; k < total_bytes; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " +
                 std::to_string(total_bytes) + " bytes");
    fs::remove(path);
    fs::remove(temp);
    FaultPlan plan;
    plan.write_budget = k;
    plan.mode = FaultMode::kCrash;
    fault_fs.set_plan(plan);
    const Status crashed = storage::WriteStoreFile(
        path, data.db, data.dict, data.taxonomy, options, &fault_fs);
    ASSERT_FALSE(crashed.ok());
    // The final path must not exist in any form: the rename only runs
    // after a successful fsync, which the fault forbids.
    ASSERT_FALSE(fs::exists(path))
        << "a crashed fresh write leaked a file at the final path";
  }
  fs::remove(temp);

  // And the clean run is reproducible after all that.
  fault_fs.set_plan(FaultPlan{});
  ASSERT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy, options, &fault_fs)
                  .ok());
  ASSERT_EQ(ReadFileBytes(path), committed_bytes);
}

// --- Failed fsyncs. --------------------------------------------------

TEST(CrashRecovery, AppendSyncFailureAtEveryFsync) {
  const Scenario scenario;
  const std::string base_path = TempPath("crash_sync_base.fdb");
  const std::string work_path = TempPath("crash_sync_work.fdb");
  scenario.WriteBase(base_path);
  const std::string base_bytes = ReadFileBytes(base_path);

  FaultInjectingFileSystem fault_fs;
  fault_fs.set_plan(FaultPlan{});
  WriteFileBytes(work_path, base_bytes);
  ASSERT_TRUE(scenario.RunAppend(work_path, &fault_fs).ok());
  const uint64_t total_syncs = fault_fs.syncs();
  ASSERT_GE(total_syncs, 3u);  // data barrier, commit point, front header
  const std::string committed_bytes = ReadFileBytes(work_path);

  for (uint64_t s = 0; s < total_syncs; ++s) {
    SCOPED_TRACE("fsync " + std::to_string(s) + " of " +
                 std::to_string(total_syncs) + " fails");
    WriteFileBytes(work_path, base_bytes);
    FaultPlan plan;
    plan.sync_budget = s;
    plan.mode = FaultMode::kCrash;
    fault_fs.set_plan(plan);
    ASSERT_FALSE(scenario.RunAppend(work_path, &fault_fs).ok());

    RepairAndVerify(work_path);
    const std::string recovered = ReadFileBytes(work_path);
    // Failing the data barrier (sync 0) kills the session before any
    // trailer byte is written: recovery restores the base. For later
    // fsyncs the trailer bytes already reached the file even though
    // durability was never confirmed, so recovery finds a complete
    // commit record and honors it (presumed commit) — never anything
    // in between.
    const std::string& expected = s == 0 ? base_bytes : committed_bytes;
    ASSERT_EQ(recovered, expected);
  }
}

// --- kFailOp: recoverable errors, writer cleanup must run. -----------

TEST(CrashRecovery, FailOpFreshWriteLeavesNoTempFile) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("failop_fresh.fdb");
  const std::string temp = path + ".tmp";
  StoreWriter::Options options;
  options.segment_txns = 4;

  FaultInjectingFileSystem fault_fs;
  fault_fs.set_plan(FaultPlan{});
  fs::remove(path);
  ASSERT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy, options, &fault_fs)
                  .ok());
  const uint64_t total_bytes = fault_fs.bytes_written();
  fs::remove(path);

  for (uint64_t k = 0; k < total_bytes; ++k) {
    SCOPED_TRACE("I/O error after " + std::to_string(k) + " bytes");
    FaultPlan plan;
    plan.write_budget = k;
    plan.mode = FaultMode::kFailOp;
    fault_fs.set_plan(plan);
    const Status failed = storage::WriteStoreFile(
        path, data.db, data.dict, data.taxonomy, options, &fault_fs);
    ASSERT_FALSE(failed.ok());
    // Metadata ops work in kFailOp, so the writer's error path must
    // have removed its temp file and never created the final path.
    ASSERT_FALSE(fs::exists(temp)) << "stray temp file after error";
    ASSERT_FALSE(fs::exists(path));
  }
}

TEST(CrashRecovery, FailOpAppendRollsBackOrKeepsCommit) {
  const Scenario scenario;
  const std::string base_path = TempPath("failop_append_base.fdb");
  const std::string work_path = TempPath("failop_append_work.fdb");
  scenario.WriteBase(base_path);
  const std::string base_bytes = ReadFileBytes(base_path);

  FaultInjectingFileSystem fault_fs;
  fault_fs.set_plan(FaultPlan{});
  WriteFileBytes(work_path, base_bytes);
  ASSERT_TRUE(scenario.RunAppend(work_path, &fault_fs).ok());
  const uint64_t total_bytes = fault_fs.bytes_written();
  const std::string committed_bytes = ReadFileBytes(work_path);
  const uint64_t commit_point = total_bytes - sizeof(storage::FileHeader);

  for (uint64_t k = 0; k < total_bytes; ++k) {
    SCOPED_TRACE("I/O error after " + std::to_string(k) + " bytes");
    WriteFileBytes(work_path, base_bytes);
    FaultPlan plan;
    plan.write_budget = k;
    plan.mode = FaultMode::kFailOp;
    fault_fs.set_plan(plan);
    ASSERT_FALSE(scenario.RunAppend(work_path, &fault_fs).ok());
    if (k < commit_point) {
      // Error before the commit point: the writer rolls back in place
      // (Truncate works in kFailOp) — no repair needed.
      ASSERT_EQ(ReadFileBytes(work_path), base_bytes)
          << "pre-commit error must roll back to the base store";
      auto plan_after = storage::AnalyzeStore(work_path);
      ASSERT_TRUE(plan_after.ok());
      ASSERT_EQ(plan_after->action, RepairPlan::Action::kNone);
    } else {
      // Error after the commit point: the session is durable and must
      // NOT be rolled back; only the front header needs repair.
      RepairAndVerify(work_path);
      ASSERT_EQ(ReadFileBytes(work_path), committed_bytes)
          << "post-commit error must keep the committed session";
    }
  }
}

// --- Abandoned writers clean up after themselves. --------------------

TEST(CrashRecovery, DroppedWriterRemovesTempFile) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("dropped_fresh.fdb");
  fs::remove(path);
  {
    auto writer = StoreWriter::Create(path, StoreWriter::Options());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(data.db.Get(0)).ok());
    // Dropped without Finish().
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(CrashRecovery, DroppedAppendSessionRestoresBase) {
  const Scenario scenario;
  const std::string path = TempPath("dropped_append.fdb");
  scenario.WriteBase(path);
  const std::string base_bytes = ReadFileBytes(path);
  {
    auto writer = StoreWriter::OpenAppend(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(scenario.data.db.Get(0)).ok());
    // Dropped without Finish().
  }
  EXPECT_EQ(ReadFileBytes(path), base_bytes);
  EXPECT_TRUE(StoreReader::Open(path).ok());
}

// --- Repair semantics. -----------------------------------------------

TEST(CrashRecovery, DryRunAnalysisNeverModifiesTheFile) {
  const Scenario scenario;
  const std::string path = TempPath("analyze_readonly.fdb");
  scenario.WriteBase(path);
  std::string torn = ReadFileBytes(path);
  torn += std::string(57, '\x7f');  // torn tail
  WriteFileBytes(path, torn);

  auto plan = storage::AnalyzeStore(path);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->action, RepairPlan::Action::kTruncateTail);
  EXPECT_EQ(plan->torn_bytes, 57u);
  EXPECT_EQ(ReadFileBytes(path), torn) << "analysis modified the file";

  auto diagnosis = storage::DiagnoseStore(path);
  ASSERT_TRUE(diagnosis.ok());
  EXPECT_FALSE(diagnosis->valid);
  EXPECT_EQ(ReadFileBytes(path), torn) << "diagnosis modified the file";
}

TEST(CrashRecovery, RepairRefusesUnrecoverableFiles) {
  const std::string path = TempPath("unrecoverable.fdb");
  WriteFileBytes(path, std::string(4096, '\x5a'));
  auto plan = storage::AnalyzeStore(path);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->action, RepairPlan::Action::kUnrecoverable);
  const Status applied = storage::ApplyRepair(path, *plan);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(ReadFileBytes(path), std::string(4096, '\x5a'))
      << "repair touched an unrecoverable file";
}

TEST(CrashRecovery, OpenPrefixReportsTheRecoveryShape) {
  const Scenario scenario;
  const std::string path = TempPath("prefix_shapes.fdb");
  scenario.WriteBase(path);
  const std::string base_bytes = ReadFileBytes(path);

  storage::PrefixInfo info;
  ASSERT_TRUE(StoreReader::OpenPrefix(path, &info).ok());
  EXPECT_EQ(info.recovery, storage::PrefixInfo::Recovery::kClean);
  EXPECT_EQ(info.committed_size, base_bytes.size());

  WriteFileBytes(path, base_bytes + std::string(31, 'x'));
  auto torn = StoreReader::OpenPrefix(path, &info);
  ASSERT_TRUE(torn.ok()) << torn.status();
  EXPECT_EQ(info.recovery, storage::PrefixInfo::Recovery::kTruncateTail);
  EXPECT_EQ(info.committed_size, base_bytes.size());
  EXPECT_EQ(info.physical_size, base_bytes.size() + 31);
  // The torn bytes are invisible to the opened reader.
  EXPECT_EQ(torn->header().file_size, base_bytes.size());
  EXPECT_EQ(torn->db().size(), scenario.base_txns);
}

// --- The fault filesystem itself. ------------------------------------

TEST(CrashRecovery, FaultFileSplitsTheStraddlingWrite) {
  FaultInjectingFileSystem fault_fs;
  FaultPlan plan;
  plan.write_budget = 10;
  fault_fs.set_plan(plan);
  const std::string path = TempPath("fault_split.bin");
  auto file = fault_fs.OpenWritable(path, /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("AAAAAAA", 7).ok());
  // 7 of 10 used: the next write is admitted for 3 bytes, then dies.
  const Status killed = (*file)->Append("BBBBBBB", 7);
  EXPECT_FALSE(killed.ok());
  EXPECT_TRUE(fault_fs.triggered());
  EXPECT_EQ(fault_fs.bytes_written(), 10u);
  // The admitted prefix reached the disk even though the handle was
  // never cleanly closed — the crash model's contract.
  EXPECT_EQ(ReadFileBytes(path), "AAAAAAABBB");
  // Everything else on a crashed filesystem fails.
  EXPECT_FALSE((*file)->Append("C", 1).ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(fault_fs.Remove(path).ok());
  EXPECT_FALSE(fault_fs.Rename(path, path + "2").ok());
}

}  // namespace
}  // namespace flipper
