// Tests for the CLI building blocks: the flag parser and the pattern
// exporters, plus the scan-cell strategy toggle and the flipper_cli
// command set driven end-to-end in-process (convert / inspect /
// datagen / mine --input).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "common/arg_parser.h"
#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "data/db_io.h"
#include "storage/format.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

TEST(ArgParser, FlagsSwitchesPositionals) {
  ArgParser args("prog", "test");
  args.AddFlag("gamma", "positive threshold", "FLOAT");
  args.AddFlag("name", "a string");
  args.AddSwitch("verbose", "noise");
  args.AddPositional("input", "input path");

  const char* argv[] = {"prog",          "--gamma=0.25", "data.basket",
                        "--name",        "hello world",  "--verbose"};
  ASSERT_TRUE(args.Parse(6, argv).ok());
  EXPECT_FALSE(args.help_requested());
  EXPECT_EQ(args.GetPositional("input"), "data.basket");
  EXPECT_DOUBLE_EQ(*args.GetDouble("gamma", 0.0), 0.25);
  EXPECT_EQ(args.GetString("name", ""), "hello world");
  EXPECT_TRUE(args.GetSwitch("verbose"));
  EXPECT_FALSE(args.GetSwitch("missing_switch_is_false"));
  EXPECT_EQ(*args.GetInt("missing", 7), 7);
}

TEST(ArgParser, Errors) {
  {
    ArgParser args("prog", "test");
    const char* argv[] = {"prog", "--unknown=1"};
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddFlag("x", "x");
    const char* argv[] = {"prog", "--x"};  // value missing
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddSwitch("v", "v");
    const char* argv[] = {"prog", "--v=yes"};  // switch with value
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddPositional("input", "path");
    const char* argv[] = {"prog"};  // positional missing
    EXPECT_FALSE(args.Parse(1, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    const char* argv[] = {"prog", "stray"};  // unexpected positional
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddFlag("n", "an int", "INT");
    const char* argv[] = {"prog", "--n=abc"};
    ASSERT_TRUE(args.Parse(2, argv).ok());
    EXPECT_FALSE(args.GetInt("n", 0).ok());  // typed accessor fails
  }
}

TEST(ArgParser, HelpRequested) {
  ArgParser args("prog", "description text");
  args.AddFlag("gamma", "threshold", "FLOAT");
  args.AddPositional("input", "path");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(args.Parse(2, argv).ok());
  EXPECT_TRUE(args.help_requested());
  const std::string help = args.HelpText();
  EXPECT_NE(help.find("description text"), std::string::npos);
  EXPECT_NE(help.find("--gamma"), std::string::npos);
  EXPECT_NE(help.find("<input>"), std::string::npos);
}

std::vector<FlippingPattern> MineToy(ItemDictionary** dict_out,
                                     testutil::Dataset* data) {
  *data = testutil::PaperToyDataset();
  MiningConfig config;
  config.gamma = 0.6;
  config.epsilon = 0.35;
  config.min_support = {0.1, 0.1, 0.1};
  auto result = FlipperMiner::Run(data->db, data->taxonomy, config);
  EXPECT_TRUE(result.ok());
  *dict_out = &data->dict;
  return result->patterns;
}

TEST(PatternIo, CsvExport) {
  testutil::Dataset data;
  ItemDictionary* dict = nullptr;
  auto patterns = MineToy(&dict, &data);
  ASSERT_EQ(patterns.size(), 1u);

  std::ostringstream oss;
  ASSERT_TRUE(WritePatternsCsv(patterns, dict, oss).ok());
  const std::string csv = oss.str();
  // Header + 3 chain rows.
  EXPECT_NE(csv.find("pattern_id,level,itemset,support,corr,label"),
            std::string::npos);
  EXPECT_NE(csv.find("a11|b11"), std::string::npos);
  EXPECT_NE(csv.find("POS"), std::string::npos);
  EXPECT_NE(csv.find("NEG"), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')),
            4);
}

TEST(PatternIo, JsonExport) {
  testutil::Dataset data;
  ItemDictionary* dict = nullptr;
  auto patterns = MineToy(&dict, &data);

  std::ostringstream oss;
  ASSERT_TRUE(WritePatternsJson(patterns, dict, oss).ok());
  const std::string json = oss.str();
  EXPECT_NE(json.find("\"leaf\": [\"a11\", \"b11\"]"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"NEG\""), std::string::npos);
  EXPECT_NE(json.find("\"flip_gap\""), std::string::npos);
  // Balanced brackets (crude structural check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(PatternIo, JsonEscapesSpecialNames) {
  ItemDictionary dict;
  const ItemId weird = dict.Intern("item\"with\\quote");
  const ItemId plain = dict.Intern("plain");
  FlippingPattern p;
  p.leaf_itemset = Itemset::Pair(weird, plain);
  p.chain.push_back({1, p.leaf_itemset, 5, 0.9, Label::kPositive});
  std::ostringstream oss;
  ASSERT_TRUE(WritePatternsJson({p}, &dict, oss).ok());
  EXPECT_NE(oss.str().find("item\\\"with\\\\quote"), std::string::npos);
}

TEST(PatternIo, FileWriteFailsOnBadPath) {
  EXPECT_FALSE(
      WritePatternsCsvFile({}, nullptr, "/nonexistent/dir/p.csv").ok());
  EXPECT_FALSE(
      WritePatternsJsonFile({}, nullptr, "/nonexistent/dir/p.json").ok());
}

/// Drives RunFlipperCli as a subprocess would, capturing both streams.
int RunCli(const std::vector<std::string>& cli_args, std::string* out_text,
           std::string* err_text) {
  std::vector<const char*> argv;
  argv.push_back("flipper_cli");
  for (const std::string& arg : cli_args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int rc = RunFlipperCli(static_cast<int>(argv.size()), argv.data(),
                               out, err);
  *out_text = out.str();
  *err_text = err.str();
  return rc;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class FlipperCliEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::Dataset data = testutil::PaperToyDataset();
    basket_ = ::testing::TempDir() + "cli_e2e.basket";
    taxonomy_ = ::testing::TempDir() + "cli_e2e.taxonomy";
    store_ = ::testing::TempDir() + "cli_e2e.fdb";
    ASSERT_TRUE(WriteTaxonomyFile(data.taxonomy, data.dict, taxonomy_).ok());
    ASSERT_TRUE(WriteBasketFile(data.db, data.dict, basket_).ok());
  }

  std::string basket_;
  std::string taxonomy_;
  std::string store_;
  std::string out_;
  std::string err_;
};

TEST_F(FlipperCliEndToEnd, ConvertInspectAndMineAreBitIdentical) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  EXPECT_NE(out_.find("wrote " + store_ + " (v1)"), std::string::npos)
      << out_;

  ASSERT_EQ(RunCli({"inspect", store_}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("FlipperStore v1"), std::string::npos);
  EXPECT_NE(out_.find("(mmap)"), std::string::npos);
  EXPECT_NE(out_.find("checksums: OK"), std::string::npos);
  EXPECT_NE(out_.find("txn_items"), std::string::npos);

  const std::vector<std::string> mining_flags = {
      "--gamma=0.6", "--epsilon=0.35", "--minsup=0.1,0.1,0.1",
      "--format=csv"};
  std::vector<std::string> from_text = {"mine", basket_, taxonomy_};
  from_text.insert(from_text.end(), mining_flags.begin(),
                   mining_flags.end());
  std::string text_csv;
  ASSERT_EQ(RunCli(from_text, &text_csv, &err_), 0) << err_;
  EXPECT_NE(text_csv.find("a11|b11"), std::string::npos);

  std::vector<std::string> from_store = {"mine", "--input", store_};
  from_store.insert(from_store.end(), mining_flags.begin(),
                    mining_flags.end());
  std::string store_csv;
  ASSERT_EQ(RunCli(from_store, &store_csv, &err_), 0) << err_;
  EXPECT_EQ(text_csv, store_csv);

  // Legacy spelling (no subcommand) still mines.
  std::vector<std::string> legacy = {basket_, taxonomy_};
  legacy.insert(legacy.end(), mining_flags.begin(), mining_flags.end());
  std::string legacy_csv;
  ASSERT_EQ(RunCli(legacy, &legacy_csv, &err_), 0) << err_;
  EXPECT_EQ(text_csv, legacy_csv);

  // A removed execution knob is an unknown flag: usage error (exit 2)
  // quoting the flag, followed by the usage text.
  for (const std::string flag : {"flat-trie=off", "counter=vertical",
                                 "pipeline=off", "row-overlap=off"}) {
    std::vector<std::string> removed = {"mine", "--input", store_,
                                        "--" + flag};
    removed.insert(removed.end(), mining_flags.begin(),
                   mining_flags.end());
    EXPECT_EQ(RunCli(removed, &out_, &err_), 2) << flag;
    EXPECT_NE(err_.find("unknown flag --" + flag.substr(0, flag.find('='))),
              std::string::npos)
        << err_;
    EXPECT_NE(err_.find("[flags]"), std::string::npos) << err_;
  }
}

TEST_F(FlipperCliEndToEnd, VersionTwoStoresAreRefusedUntouched) {
  // A store whose header claims format version 2 (checksum fixed), the
  // version older builds wrote: every command that opens it exits
  // non-zero naming the version and the way to regenerate it, never
  // suggests repair, and leaves the file as it was.
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  std::string bytes = SlurpFile(store_);
  auto* header = reinterpret_cast<storage::FileHeader*>(bytes.data());
  header->version = 2;
  header->header_checksum = storage::HeaderChecksum(*header);
  const std::string old_store = ::testing::TempDir() + "cli_e2e_v2.fdb";
  DumpFile(old_store, bytes);
  const std::string refusal =
      "unsupported store version 2 (this build reads only version 1; a "
      "store written by an older build must be regenerated from its "
      "source files with `flipper_cli convert` or `flipper_cli datagen`): " +
      old_store;

  const std::string converted = ::testing::TempDir() + "cli_e2e_v2_out.fdb";
  std::remove(converted.c_str());
  // validate and repair report an intact store of another version as
  // an error (exit 2), not as corruption (exit 3, "unrecoverable").
  const std::vector<std::pair<std::vector<std::string>, int>> commands = {
      {{"inspect", old_store}, 1},
      {{"validate", old_store}, 2},
      {{"repair", old_store, "--apply"}, 2},
      {{"convert", "--from-fdb", old_store, converted}, 1},
  };
  for (const auto& [command, exit_code] : commands) {
    SCOPED_TRACE(command.front());
    EXPECT_EQ(RunCli(command, &out_, &err_), exit_code);
    const std::string said = out_ + err_;
    EXPECT_NE(said.find(refusal), std::string::npos) << said;
    EXPECT_EQ(said.find("flipper_cli repair"), std::string::npos) << said;
    EXPECT_EQ(said.find("nrecoverable"), std::string::npos) << said;
    EXPECT_EQ(said.find("UNRECOVERABLE"), std::string::npos) << said;
    EXPECT_EQ(said.find("no committed state"), std::string::npos) << said;
    EXPECT_EQ(SlurpFile(old_store), bytes);
  }
  EXPECT_FALSE(std::ifstream(converted).good());

  // The version flag is gone: an unknown flag is a usage error.
  EXPECT_EQ(RunCli({"convert", "--from-fdb", store_, converted,
                    "--store-version=2"},
                   &out_, &err_),
            2);
  EXPECT_NE(err_.find("unknown flag --store-version"), std::string::npos)
      << err_;
}

TEST_F(FlipperCliEndToEnd, ConvertCompactsAnAppendedStore) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  const std::string compact = SlurpFile(store_);
  // Grow a 6-transaction prefix back to the full toy set with one
  // append session: two raw block pairs, the table in the trailer.
  auto reader = storage::StoreReader::Open(store_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::string grown = ::testing::TempDir() + "cli_e2e_grown.fdb";
  {
    auto writer = storage::StoreWriter::Create(grown);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (TxnId t = 0; t < 6; ++t) {
      ASSERT_TRUE(writer->Append(reader->db().Get(t)).ok());
    }
    ASSERT_TRUE(writer->Finish(reader->dict(), reader->taxonomy()).ok());
    auto session = storage::StoreWriter::OpenAppend(grown);
    ASSERT_TRUE(session.ok()) << session.status();
    for (TxnId t = 6; t < reader->db().size(); ++t) {
      ASSERT_TRUE(session->Append(reader->db().Get(t)).ok());
    }
    ASSERT_TRUE(session->Finish(reader->dict(), reader->taxonomy()).ok());
  }
  EXPECT_GT(SlurpFile(grown).size(), compact.size());

  // Not a compact v1 input, so convert re-encodes instead of copying:
  // one block pair, the table after the header — the bytes a fresh
  // conversion at the carried-over segment size (6) writes.
  const std::string compacted =
      ::testing::TempDir() + "cli_e2e_compacted.fdb";
  ASSERT_EQ(RunCli({"convert", "--from-fdb", grown, compacted}, &out_,
                   &err_),
            0)
      << err_;
  EXPECT_EQ(out_.find("validated copy"), std::string::npos) << out_;
  EXPECT_NE(out_.find("v1 -> v1"), std::string::npos) << out_;
  const std::string fresh = ::testing::TempDir() + "cli_e2e_fresh6.fdb";
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, fresh,
                    "--segment-txns=6"},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_EQ(SlurpFile(compacted), SlurpFile(fresh));
}

TEST_F(FlipperCliEndToEnd, ConvertSameVersionIsAValidatedCopy) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  std::ifstream original_file(store_, std::ios::binary);
  std::ostringstream original_bytes;
  original_bytes << original_file.rdbuf();

  const std::string copy = ::testing::TempDir() + "cli_e2e_copy.fdb";
  ASSERT_EQ(RunCli({"convert", "--from-fdb", store_, copy}, &out_, &err_),
            0)
      << err_;
  EXPECT_NE(out_.find("validated copy"), std::string::npos);
  EXPECT_NE(out_.find("already v1"), std::string::npos);

  std::ifstream copy_file(copy, std::ios::binary);
  std::ostringstream copy_bytes;
  copy_bytes << copy_file.rdbuf();
  EXPECT_EQ(original_bytes.str(), copy_bytes.str());

  // An explicit --segment-txns requests a re-shard, so the fast copy
  // is bypassed even at the same version.
  const std::string resharded =
      ::testing::TempDir() + "cli_e2e_reshard.fdb";
  ASSERT_EQ(RunCli({"convert", "--from-fdb", copy, resharded,
                    "--segment-txns=4"},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_EQ(out_.find("validated copy"), std::string::npos);
  ASSERT_EQ(RunCli({"inspect", resharded}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("segments: 3"), std::string::npos);  // 10 txns / 4

  // An in-place re-encode would truncate the store while its mapping
  // is being read — it must be refused up front (through differing
  // spellings of the same path too), leaving the file intact.
  std::ifstream before_file(copy, std::ios::binary);
  std::ostringstream before_bytes;
  before_bytes << before_file.rdbuf();
  before_file.close();
  EXPECT_EQ(RunCli({"convert", "--from-fdb", copy, copy,
                    "--segment-txns=4"},
                   &out_, &err_),
            2);
  EXPECT_NE(err_.find("onto itself"), std::string::npos);
  const std::string alias =
      ::testing::TempDir() + "./cli_e2e_copy.fdb";  // same file
  EXPECT_EQ(RunCli({"convert", "--from-fdb", copy, alias,
                    "--segment-txns=4"},
                   &out_, &err_),
            2);
  std::ifstream after_file(copy, std::ios::binary);
  std::ostringstream after_bytes;
  after_bytes << after_file.rdbuf();
  EXPECT_EQ(before_bytes.str(), after_bytes.str());

  // A corrupt same-version input must fail the validated copy, not be
  // propagated.
  // 16 consecutive bytes cannot be all inter-section padding (at most
  // 7 pad bytes per boundary), so some checksummed payload is hit.
  std::string bytes = original_bytes.str();
  for (size_t i = 0; i < 16; ++i) bytes[bytes.size() / 2 + i] ^= 0x1;
  std::ofstream corrupt(store_, std::ios::binary | std::ios::trunc);
  corrupt.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
  corrupt.close();
  EXPECT_NE(RunCli({"convert", "--from-fdb", store_, copy}, &out_, &err_),
            0);
  // The re-encode path must refuse the same bitrot too — otherwise a
  // re-shard would launder it into a freshly checksummed file.
  EXPECT_NE(RunCli({"convert", "--from-fdb", store_, copy,
                    "--segment-txns=4"},
                   &out_, &err_),
            0);
}

TEST_F(FlipperCliEndToEnd, MineRejectsACorruptStore) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  // Truncate the store mid-file.
  std::ifstream in(store_, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  const std::string bytes = oss.str();
  std::ofstream trunc(store_, std::ios::binary | std::ios::trunc);
  trunc.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  trunc.close();

  EXPECT_EQ(RunCli({"mine", "--input", store_}, &out_, &err_), 1);
  EXPECT_NE(err_.find("error:"), std::string::npos);
  EXPECT_EQ(RunCli({"inspect", store_}, &out_, &err_), 1);
  EXPECT_NE(err_.find("error:"), std::string::npos);
  // A failed inspect explains itself with the per-section diagnosis
  // rather than a bare open error.
  EXPECT_NE(err_.find("diagnosis:"), std::string::npos);
}

TEST_F(FlipperCliEndToEnd, ValidateAndRepairRecoverATornStore) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  ASSERT_EQ(RunCli({"validate", store_}, &out_, &err_), 0) << out_;
  EXPECT_NE(out_.find(": valid ("), std::string::npos);
  EXPECT_NE(out_.find("front_header"), std::string::npos);
  EXPECT_NE(out_.find("section_table"), std::string::npos);

  // Tear the file the way a crashed append session would: committed
  // bytes plus an uncommitted tail.
  const std::string base_bytes = SlurpFile(store_);
  DumpFile(store_, base_bytes + std::string(41, '\x7f'));

  EXPECT_EQ(RunCli({"validate", store_}, &out_, &err_), 1);
  EXPECT_NE(out_.find("corrupt but repairable"), std::string::npos);
  EXPECT_NE(out_.find("torn_tail"), std::string::npos);
  // --quiet keeps the verdict but drops the finding lines (they carry
  // "@ [offset, offset+size)" ranges).
  EXPECT_EQ(RunCli({"validate", store_, "--quiet"}, &out_, &err_), 1);
  EXPECT_NE(out_.find("corrupt but repairable"), std::string::npos);
  EXPECT_EQ(out_.find("@ ["), std::string::npos);

  // Inspect refuses the torn file but says why and how to fix it.
  EXPECT_EQ(RunCli({"inspect", store_}, &out_, &err_), 1);
  EXPECT_NE(err_.find("diagnosis:"), std::string::npos);
  EXPECT_NE(err_.find("torn_tail"), std::string::npos);
  EXPECT_NE(err_.find("repair"), std::string::npos);

  // Dry run (the default) plans the truncation but modifies nothing.
  EXPECT_EQ(RunCli({"repair", store_}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("would truncate 41 torn bytes"), std::string::npos);
  EXPECT_NE(out_.find("dry run: nothing modified"), std::string::npos);
  EXPECT_EQ(SlurpFile(store_), base_bytes + std::string(41, '\x7f'));
  EXPECT_EQ(RunCli({"repair", store_, "--apply", "--dry-run"},
                   &out_, &err_),
            2);
  EXPECT_NE(err_.find("mutually exclusive"), std::string::npos);

  // --apply restores the committed bytes exactly.
  EXPECT_EQ(RunCli({"repair", store_, "--apply"}, &out_, &err_), 0)
      << err_;
  EXPECT_NE(out_.find("repaired:"), std::string::npos);
  EXPECT_EQ(SlurpFile(store_), base_bytes);
  EXPECT_EQ(RunCli({"validate", store_}, &out_, &err_), 0) << out_;
  EXPECT_EQ(RunCli({"mine", "--input", store_, "--gamma=0.6",
                    "--epsilon=0.35", "--minsup=0.1,0.1,0.1"},
                   &out_, &err_),
            0)
      << err_;

  // Repairing a clean store is a no-op.
  EXPECT_EQ(RunCli({"repair", store_, "--apply"}, &out_, &err_), 0);
  EXPECT_NE(out_.find("already clean"), std::string::npos);
  EXPECT_EQ(SlurpFile(store_), base_bytes);
}

TEST_F(FlipperCliEndToEnd, ValidateAndRepairRefuseGarbage) {
  const std::string garbage = ::testing::TempDir() + "cli_garbage.fdb";
  DumpFile(garbage, std::string(4096, '\x5a'));
  EXPECT_EQ(RunCli({"validate", garbage}, &out_, &err_), 3);
  EXPECT_NE(out_.find("UNRECOVERABLE"), std::string::npos);
  // The payload finding carries the open error's own text, prefix once.
  EXPECT_NE(out_.find("BAD payload @ [0, 4096): no committed state found "
                      "(front header: "),
            std::string::npos)
      << out_;
  EXPECT_EQ(out_.find("no committed state found: "), std::string::npos)
      << out_;
  EXPECT_EQ(RunCli({"repair", garbage, "--apply"}, &out_, &err_), 3);
  EXPECT_NE(err_.find("unrecoverable"), std::string::npos);
  // Refusal never modifies the file.
  EXPECT_EQ(SlurpFile(garbage), std::string(4096, '\x5a'));

  EXPECT_EQ(RunCli({"validate", ::testing::TempDir() + "missing.fdb"},
                   &out_, &err_),
            2);
  EXPECT_NE(err_.find("error:"), std::string::npos);
}

TEST_F(FlipperCliEndToEnd, DatagenWritesAMineableStore) {
  const std::string generated = ::testing::TempDir() + "cli_datagen.fdb";
  ASSERT_EQ(RunCli({"datagen", "groceries", generated, "--txns=400",
                    "--segment-txns=128"},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_NE(out_.find("wrote " + generated), std::string::npos);

  ASSERT_EQ(RunCli({"inspect", generated}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("checksums: OK"), std::string::npos);
  EXPECT_NE(out_.find("segments: 4"), std::string::npos);  // 400/128

  EXPECT_EQ(RunCli({"mine", "--input", generated, "--format=json"},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_EQ(RunCli({"datagen", "nonsense", generated}, &out_, &err_), 2);
}

TEST_F(FlipperCliEndToEnd, UsageErrorsReturnTwo) {
  EXPECT_EQ(RunCli({"convert", "only_one_arg"}, &out_, &err_), 2);
  EXPECT_NE(err_.find("error:"), std::string::npos);
  EXPECT_EQ(RunCli({"inspect"}, &out_, &err_), 2);
  ASSERT_EQ(RunCli({"--help"}, &out_, &err_), 0);
  EXPECT_NE(out_.find("convert"), std::string::npos);
  EXPECT_NE(out_.find("datagen"), std::string::npos);
}

TEST(ScanCells, ToggleDoesNotChangeResults) {
  testutil::Dataset data = testutil::RandomDataset(1234, 5, 3, 3, 600, 9);
  MiningConfig config;
  config.gamma = 0.45;
  config.epsilon = 0.2;
  config.min_support = {0.003, 0.002, 0.002};

  config.enable_scan_cells = true;
  auto with_scan = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(with_scan.ok());
  config.enable_scan_cells = false;
  auto without_scan = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(without_scan.ok());
  EXPECT_TRUE(SamePatterns(with_scan->patterns, without_scan->patterns));
}

}  // namespace
}  // namespace flipper
