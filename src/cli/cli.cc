#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/arg_parser.h"
#include "common/backoff.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/pipeline_metrics.h"
#include "datagen/census_sim.h"
#include "datagen/groceries_sim.h"
#include "datagen/medline_sim.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "flipper.h"
#include "service/client.h"
#include "service/mine_service.h"
#include "service/server.h"
#include "storage/recovery.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"

namespace flipper {
namespace {

/// The per-level Apriori baseline behind --baseline: NaiveMiner in
/// place of MinePatterns, then the shared RenderRequest tail.
Result<service::MineOutcome> RunBaselineMine(
    const TransactionDb& db, const Taxonomy& taxonomy,
    const ItemDictionary* dict, const service::MineRequest& request,
    MetricsRegistry* metrics) {
  MiningConfig config = service::ToMiningConfig(request);
  config.metrics = metrics;
  FLIPPER_ASSIGN_OR_RETURN(MiningResult result,
                           NaiveMiner::Run(db, taxonomy, config));
  FLIPPER_ASSIGN_OR_RETURN(
      service::MineOutcome outcome,
      service::RenderRequest(result.patterns, dict, request));
  outcome.stats_text = result.stats.ToString();
  return outcome;
}

/// Writer options from --segment-txns.
Result<storage::StoreWriter::Options> ParseWriterOptions(
    const ArgParser& args) {
  storage::StoreWriter::Options options;
  FLIPPER_ASSIGN_OR_RETURN(
      int64_t segment_txns,
      args.GetInt("segment-txns",
                  static_cast<int64_t>(options.segment_txns)));
  if (segment_txns <= 0 ||
      segment_txns > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "--segment-txns must be a positive 32-bit count");
  }
  options.segment_txns = static_cast<uint32_t>(segment_txns);
  return options;
}

void AddWriterFlags(ArgParser* args) {
  args->AddFlag("segment-txns",
                "transactions per shard segment (default 65536)", "N");
}

// --- mine -------------------------------------------------------------

int MineCommand(const std::vector<const char*>& argv, std::ostream& out,
                std::ostream& err) {
  bool use_store = false;
  for (const char* arg : argv) {
    const std::string_view view(arg);
    if (view == "--input" || view.rfind("--input=", 0) == 0) {
      use_store = true;
      break;
    }
  }

  ArgParser args("flipper_cli mine",
                 "Mine flipping correlation patterns (Barsky et al., "
                 "VLDB 2011) from a basket file and a taxonomy file, "
                 "or from a binary FlipperStore (.fdb) via --input.");
  if (!use_store) {
    args.AddPositional("basket",
                       "transactions, one per line (item names)");
    args.AddPositional("taxonomy",
                       "'root <name>' / 'edge <parent> <child>' lines");
  }
  args.AddFlag("input", "mine a .fdb FlipperStore instead of text files",
               "PATH");
  args.AddSwitch("no-validate",
                 "with --input: skip the store's payload validation "
                 "scan (trusted files only)");
  args.AddFlag("gamma", "positive correlation threshold (default 0.3)",
               "FLOAT");
  args.AddFlag("epsilon", "negative correlation threshold (default 0.1)",
               "FLOAT");
  args.AddFlag("minsup",
               "comma-separated per-level minimum supports, most "
               "general level first (default 0.01,0.001,0.0005)",
               "F1,F2,...");
  args.AddFlag("measure",
               "all_confidence|coherence|cosine|kulczynski|"
               "max_confidence (default kulczynski)",
               "NAME");
  args.AddFlag("pruning", "full|tpg|flipping|support (default full)",
               "NAME");
  args.AddFlag("threads",
               "worker threads for counting (default 0 = all hardware "
               "threads)",
               "N");
  args.AddFlag("topk", "keep only the K widest flips", "K");
  args.AddFlag("format", "text|csv|json (default text)", "NAME");
  args.AddFlag("out", "write patterns to a file instead of stdout",
               "PATH");
  args.AddSwitch("baseline",
                 "run the per-level Apriori baseline (NaiveMiner)");
  args.AddSwitch("stats", "print mining statistics to stderr");
  args.AddFlag("trace-out",
               "record pipeline spans during the run and write Chrome "
               "trace-event JSON (load in chrome://tracing or "
               "ui.perfetto.dev) to PATH",
               "PATH");
  args.AddFlag("metrics-json",
               "write the machine-readable run report (counters, "
               "per-stage latency histograms, pool utilization) to "
               "PATH, or '-' for stdout",
               "PATH");

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }

  // --- Route every mining option through the one checked parser
  // (service::ApplyMineOption): strict numeric syntax, range checks,
  // and the offending token quoted in the error. Bad values are a
  // usage error — exit 2 with the help text.
  service::MineRequest request;
  for (const std::string& key : service::MineOptionKeys()) {
    if (!args.Has(key)) continue;
    const Status applied = service::ApplyMineOption(
        &request, key, args.GetString(key, ""));
    if (!applied.ok()) {
      err << "error: " << applied << "\n\n" << args.HelpText();
      return 2;
    }
  }

  // --- Open every output sink up front: an unwritable --out,
  // --trace-out or --metrics-json path must fail before any mining
  // work is spent, not after.
  const std::string trace_path = args.GetString("trace-out", "");
  const std::string metrics_path = args.GetString("metrics-json", "");
  const std::string out_path = args.GetString("out", "");
  const auto open_sink = [&err](const std::string& path,
                                std::optional<std::ofstream>* file) {
    file->emplace(path, std::ios::trunc);
    if (!**file) {
      err << "error: cannot open for writing: " << path << "\n";
      return false;
    }
    return true;
  };
  std::optional<std::ofstream> trace_file;
  std::optional<std::ofstream> metrics_file;
  std::optional<std::ofstream> out_file;
  if (!trace_path.empty() && !open_sink(trace_path, &trace_file)) {
    return 1;
  }
  if (!metrics_path.empty() && metrics_path != "-" &&
      !open_sink(metrics_path, &metrics_file)) {
    return 1;
  }
  if (!out_path.empty() && !open_sink(out_path, &out_file)) {
    return 1;
  }

  // --- Load inputs: either the store's borrowed views or text. ---
  ItemDictionary text_dict;
  Taxonomy text_taxonomy;
  TransactionDb text_db;
  std::optional<storage::StoreReader> reader;
  const ItemDictionary* dict = &text_dict;
  const Taxonomy* taxonomy = &text_taxonomy;
  const TransactionDb* db = &text_db;
  if (use_store) {
    storage::OpenOptions open_options;
    open_options.validate = !args.GetSwitch("no-validate");
    auto opened = storage::StoreReader::Open(args.GetString("input", ""),
                                             open_options);
    if (!opened.ok()) {
      err << "error: " << opened.status() << "\n";
      return 1;
    }
    reader.emplace(std::move(opened).value());
    dict = &reader->dict();
    taxonomy = &reader->taxonomy();
    db = &reader->db();
  } else {
    auto loaded_taxonomy =
        ReadTaxonomyFile(args.GetPositional("taxonomy"), &text_dict);
    if (!loaded_taxonomy.ok()) {
      err << "error: " << loaded_taxonomy.status() << "\n";
      return 1;
    }
    text_taxonomy = std::move(loaded_taxonomy).value();
    auto loaded_db =
        ReadBasketFile(args.GetPositional("basket"), &text_dict);
    if (!loaded_db.ok()) {
      err << "error: " << loaded_db.status() << "\n";
      return 1;
    }
    text_db = std::move(loaded_db).value();
  }

  // --- Mine inside a per-query trace session. Spans land in this
  // run's own session — never in the process-wide default — so
  // concurrent in-process callers (the daemon, tests) can each trace
  // without interleaving, and the global tracing state is untouched.
  MetricsRegistry metrics;
  MetricsRegistry* metrics_ptr =
      metrics_path.empty() ? nullptr : &metrics;
  trace::Session session;
  const bool tracing = !trace_path.empty();
  if (tracing) session.SetEnabled(true);
  auto outcome = [&]() -> Result<service::MineOutcome> {
    trace::SessionScope scope(&session);
    if (args.GetSwitch("baseline")) {
      return RunBaselineMine(*db, *taxonomy, dict, request,
                             metrics_ptr);
    }
    return service::ExecuteMineRequest(*db, *taxonomy, dict, nullptr,
                                       request, metrics_ptr);
  }();
  // The miner (and its pool) is gone here, so every span is closed
  // and published; stop recording before touching the buffers.
  if (tracing) session.SetEnabled(false);
  if (!outcome.ok()) {
    err << "error: " << outcome.status() << "\n";
    return 1;
  }
  if (tracing) {
    session.ExportChromeJson(*trace_file);
    trace_file->flush();
    if (!*trace_file) {
      err << "error: write failed: " << trace_path << "\n";
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    if (metrics_path == "-") {
      metrics.WriteJson(out);
    } else {
      metrics.WriteJson(*metrics_file);
      metrics_file->flush();
      if (!*metrics_file) {
        err << "error: write failed: " << metrics_path << "\n";
        return 1;
      }
    }
  }

  // --- Emit (the body bytes are the shared RenderPatterns path, so
  // a daemon response for the same options is byte-identical). ---
  std::ostream* sink = out_file ? &*out_file : &out;
  *sink << outcome->body;
  if (out_file) {
    out_file->flush();
    if (!*out_file) {
      err << "error: write failed: " << out_path << "\n";
      return 1;
    }
  }
  if (args.GetSwitch("stats")) {
    err << outcome->stats_text;
  }
  return 0;
}

// --- convert ----------------------------------------------------------

/// Re-encodes `reader`'s dataset as a fresh v1 store (or fast-copies
/// it when it already is one and no re-segmentation was requested)
/// into `output`. Re-encoding upgrades legacy v2 stores and compacts
/// appended ones. `same_file` says input and output are one file on disk
/// (any spelling, symlink or hardlink): writing would truncate the
/// store under the reader's live mapping, so it degrades the fast
/// path to validate-only and refuses the re-encode outright.
int ConvertFromStore(const storage::StoreReader& reader,
                     const std::string& input, const std::string& output,
                     const storage::StoreWriter::Options& options,
                     bool resegment, bool same_file, std::ostream& out,
                     std::ostream& err) {
  const uint32_t detected = reader.version();
  // Open() validates structure and semantics, but only the checksum
  // sweep compares bytes nothing else interprets (e.g. dictionary name
  // text) against what was written — run it on every path so bitrot is
  // never laundered into a "fresh" output file.
  Status checksums = reader.VerifyChecksums();
  if (!checksums.ok()) {
    err << "error: " << checksums << "\n";
    return 1;
  }
  const bool compact_v1 =
      detected == storage::kFormatVersionV1 &&
      reader.header().section_count == storage::kNumSectionsV1;
  if (compact_v1 && !resegment) {
    // Already what a re-encode would write: the input has passed
    // Open()'s validation, so a byte copy is both faster and safer
    // than a decode/re-encode round trip.
    if (!same_file) {
      std::ifstream in_file(input, std::ios::binary);
      std::ofstream out_file(output,
                             std::ios::binary | std::ios::trunc);
      if (!in_file || !(out_file << in_file.rdbuf())) {
        err << "error: cannot copy " << input << " to " << output
            << "\n";
        return 1;
      }
    }
    if (same_file) {
      out << "validated " << input << " in place (already v" << detected
          << ", "
          << FormatBytes(static_cast<int64_t>(reader.file_size()))
          << "; nothing written)\n";
    } else {
      out << "wrote " << output << ": validated copy of " << input
          << " (already v" << detected << ", "
          << FormatBytes(static_cast<int64_t>(reader.file_size()))
          << ")\n";
    }
    return 0;
  }

  if (same_file) {
    err << "error: cannot re-encode " << input
        << " onto itself; write to a different path\n";
    return 2;
  }
  Status written = storage::WriteStoreFile(
      output, reader.db(), reader.dict(), reader.taxonomy(), options);
  if (!written.ok()) {
    err << "error: " << written << "\n";
    return 1;
  }
  auto reopened = storage::StoreReader::Open(output);
  if (!reopened.ok()) {
    err << "error: verification reopen failed: " << reopened.status()
        << "\n";
    return 1;
  }
  out << "wrote " << output << ": v" << detected << " -> v"
      << reopened->version() << ", "
      << FormatCount(static_cast<int64_t>(reader.db().size()))
      << " transactions, "
      << FormatBytes(static_cast<int64_t>(reader.file_size())) << " -> "
      << FormatBytes(static_cast<int64_t>(reopened->file_size()))
      << "\n";
  return 0;
}

int ConvertCommand(const std::vector<const char*>& argv,
                   std::ostream& out, std::ostream& err) {
  bool from_store = false;
  for (const char* arg : argv) {
    const std::string_view view(arg);
    if (view == "--from-fdb" || view.rfind("--from-fdb=", 0) == 0) {
      from_store = true;
      break;
    }
  }

  ArgParser args("flipper_cli convert",
                 "Convert basket + taxonomy text files into a binary "
                 "FlipperStore (.fdb), or re-encode an existing store "
                 "via --from-fdb (upgrades legacy v2 stores to v1 and "
                 "compacts appended ones).");
  if (!from_store) {
    args.AddPositional("basket",
                       "transactions, one per line (item names)");
    args.AddPositional("taxonomy",
                       "'root <name>' / 'edge <parent> <child>' lines");
  }
  args.AddPositional("output", "the .fdb file to write");
  args.AddFlag("from-fdb",
               "re-encode this .fdb store instead of parsing text "
               "(a compact v1 input becomes a validated copy unless "
               "--segment-txns requests a re-shard)",
               "PATH");
  AddWriterFlags(&args);

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }
  auto options = ParseWriterOptions(args);
  if (!options.ok()) {
    err << "error: " << options.status() << "\n";
    return 2;
  }
  const std::string& output = args.GetPositional("output");

  if (from_store) {
    const std::string input = args.GetString("from-fdb", "");
    auto reader = storage::StoreReader::Open(input);
    if (!reader.ok()) {
      err << "error: " << reader.status() << "\n";
      return 1;
    }
    // An explicit --segment-txns means "re-cut the shards", which
    // rules out the byte-copy fast path; without one,
    // carry the input's shard granularity over instead of re-cutting
    // at the default size.
    const bool resegment = !args.GetString("segment-txns", "").empty();
    if (!resegment && reader->segments().size() > 1) {
      const uint64_t first_segment =
          reader->segments()[1] - reader->segments()[0];
      if (first_segment > 0 &&
          first_segment <= std::numeric_limits<uint32_t>::max()) {
        options->segment_txns = static_cast<uint32_t>(first_segment);
      }
    }
    // File identity by device+inode (std::filesystem::equivalent), so
    // every aliasing — ./x vs x, symlinks, hardlinks — is caught; an
    // error (e.g. output does not exist yet) means distinct files,
    // with the raw strings as a last-resort fallback.
    std::error_code eq_ec;
    bool same_file = std::filesystem::equivalent(input, output, eq_ec);
    if (eq_ec) same_file = input == output;
    return ConvertFromStore(*reader, input, output, *options, resegment,
                            same_file, out, err);
  }

  ItemDictionary dict;
  auto taxonomy = ReadTaxonomyFile(args.GetPositional("taxonomy"), &dict);
  if (!taxonomy.ok()) {
    err << "error: " << taxonomy.status() << "\n";
    return 1;
  }
  WallTimer timer;
  auto db = ReadBasketFile(args.GetPositional("basket"), &dict);
  if (!db.ok()) {
    err << "error: " << db.status() << "\n";
    return 1;
  }
  const double parse_s = timer.ElapsedSeconds();
  Status written =
      storage::WriteStoreFile(output, *db, dict, *taxonomy, *options);
  if (!written.ok()) {
    err << "error: " << written << "\n";
    return 1;
  }

  auto reopened = storage::StoreReader::Open(output);
  if (!reopened.ok()) {
    err << "error: verification reopen failed: " << reopened.status()
        << "\n";
    return 1;
  }
  out << "wrote " << output << " (v" << reopened->version() << "): "
      << FormatCount(static_cast<int64_t>(db->size()))
      << " transactions, "
      << FormatCount(static_cast<int64_t>(db->total_items()))
      << " items, " << dict.size() << " names, "
      << reopened->segments().size() - 1 << " segments, "
      << FormatBytes(static_cast<int64_t>(reopened->file_size()))
      << " (text parse took " << FormatDouble(parse_s * 1e3, 1)
      << " ms)\n";
  return 0;
}

// --- validate / repair ------------------------------------------------

/// Renders a diagnosis finding list as aligned, offset-bearing lines.
void PrintFindings(const storage::Diagnosis& diagnosis,
                   std::ostream& out) {
  for (const storage::Finding& f : diagnosis.findings) {
    out << "  " << (f.ok ? "ok  " : "BAD ") << f.section << " @ ["
        << f.offset << ", " << f.offset + f.size << "): " << f.detail
        << "\n";
  }
}

/// Maps a repair plan to the `validate` exit code contract:
/// 0 = valid, 1 = corrupt but repairable, 3 = unrecoverable.
int ValidateExitCode(const storage::RepairPlan& plan) {
  switch (plan.action) {
    case storage::RepairPlan::Action::kNone:
      return 0;
    case storage::RepairPlan::Action::kTruncateTail:
    case storage::RepairPlan::Action::kRewriteFrontHeader:
      return 1;
    case storage::RepairPlan::Action::kUnrecoverable:
      return 3;
  }
  return 3;
}

int ValidateCommand(const std::vector<const char*>& argv,
                    std::ostream& out, std::ostream& err) {
  ArgParser args(
      "flipper_cli validate",
      "Deep-check a FlipperStore (.fdb) file: headers, commit trailer, "
      "section table, per-section checksums and payload validation, "
      "with byte offsets for every problem found.\n"
      "\n"
      "exit codes: 0 = valid, 1 = corrupt but repairable (see "
      "`flipper_cli repair`), 2 = usage or I/O error, 3 = corrupt and "
      "unrecoverable.");
  args.AddPositional("store", "the .fdb file to validate");
  args.AddSwitch("quiet", "suppress the per-region findings, print only "
                          "the verdict");

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }

  const std::string& path = args.GetPositional("store");
  auto diagnosis = storage::DiagnoseStore(path);
  if (!diagnosis.ok()) {
    err << "error: " << diagnosis.status() << "\n";
    return 2;
  }
  const storage::RepairPlan& plan = diagnosis->plan;
  if (diagnosis->valid) {
    out << path << ": valid (" << plan.physical_size
        << " bytes, all checksums and payload validation pass)\n";
  } else if (plan.action ==
             storage::RepairPlan::Action::kUnrecoverable) {
    out << path << ": UNRECOVERABLE — " << plan.detail << "\n";
  } else {
    out << path << ": corrupt but repairable — " << plan.detail
        << " (" << plan.committed_size << " of " << plan.physical_size
        << " bytes committed; run `flipper_cli repair " << path
        << " --apply`)\n";
  }
  if (!args.GetSwitch("quiet")) PrintFindings(*diagnosis, out);
  return ValidateExitCode(plan);
}

int RepairCommand(const std::vector<const char*>& argv, std::ostream& out,
                  std::ostream& err) {
  ArgParser args(
      "flipper_cli repair",
      "Restore a crash-torn FlipperStore (.fdb) to its last committed "
      "state: truncate a torn append tail, or redo a front-header "
      "rewrite from the commit trailer. Dry-run by default — nothing "
      "is modified unless --apply is given. Repair never invents "
      "data; a file with no committed state is refused.");
  args.AddPositional("store", "the .fdb file to repair");
  args.AddSwitch("apply", "perform the repair (default: dry run, "
                          "print what would be done)");
  args.AddSwitch("dry-run",
                 "explicitly request the default dry-run behavior");

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }
  if (args.GetSwitch("apply") && args.GetSwitch("dry-run")) {
    err << "error: --apply and --dry-run are mutually exclusive\n";
    return 2;
  }

  const std::string& path = args.GetPositional("store");
  auto plan = storage::AnalyzeStore(path);
  if (!plan.ok()) {
    err << "error: " << plan.status() << "\n";
    return 2;
  }
  switch (plan->action) {
    case storage::RepairPlan::Action::kNone:
      out << path << ": already clean (" << plan->committed_size
          << " bytes committed); nothing to do\n";
      return 0;
    case storage::RepairPlan::Action::kUnrecoverable:
      err << "error: " << path << " is unrecoverable: " << plan->detail
          << "\n";
      return 3;
    case storage::RepairPlan::Action::kTruncateTail:
      out << path << ": " << plan->detail << "\n  "
          << (args.GetSwitch("apply") ? "truncating" : "would truncate")
          << " " << plan->torn_bytes << " torn bytes, keeping the "
          << plan->committed_size << " committed bytes\n";
      break;
    case storage::RepairPlan::Action::kRewriteFrontHeader:
      out << path << ": " << plan->detail << "\n  "
          << (args.GetSwitch("apply") ? "rewriting" : "would rewrite")
          << " the front header from the commit trailer ("
          << plan->committed_size << " bytes committed)\n";
      break;
  }
  if (!args.GetSwitch("apply")) {
    out << "  dry run: nothing modified (pass --apply to repair)\n";
    return 0;
  }
  Status applied = storage::ApplyRepair(path, *plan);
  if (!applied.ok()) {
    err << "error: " << applied << "\n";
    return 1;
  }
  out << "  repaired: " << path << " now opens clean ("
      << plan->committed_size << " bytes)\n";
  return 0;
}

// --- inspect ----------------------------------------------------------

int InspectCommand(const std::vector<const char*>& argv,
                   std::ostream& out, std::ostream& err) {
  ArgParser args("flipper_cli inspect",
                 "Validate a FlipperStore (.fdb) file and print its "
                 "header, section table and checksum state.");
  args.AddPositional("store", "the .fdb file to inspect");

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }

  const std::string& path = args.GetPositional("store");
  auto reader = storage::StoreReader::Open(path);
  if (!reader.ok()) {
    err << "error: " << reader.status() << "\n";
    // A failed open is where a diagnosis is most useful: say *which*
    // region is bad and whether repair can help, not just that the
    // open failed.
    auto diagnosis = storage::DiagnoseStore(path);
    if (diagnosis.ok()) {
      err << "diagnosis:\n";
      PrintFindings(*diagnosis, err);
      const storage::RepairPlan& plan = diagnosis->plan;
      if (plan.action == storage::RepairPlan::Action::kTruncateTail ||
          plan.action ==
              storage::RepairPlan::Action::kRewriteFrontHeader) {
        err << "the last committed state (" << plan.committed_size
            << " bytes) is intact: run `flipper_cli repair " << path
            << " --apply` to restore it\n";
      }
    }
    return 1;
  }
  const storage::FileHeader& h = reader->header();
  out << path << ": FlipperStore v" << h.version << ", "
      << FormatBytes(static_cast<int64_t>(reader->file_size()))
      << (reader->mapped() ? " (mmap)" : " (heap)") << "\n"
      << "  transactions: "
      << FormatCount(static_cast<int64_t>(h.num_transactions))
      << "  items: " << FormatCount(static_cast<int64_t>(h.num_items))
      << "  max width: " << h.max_width << "\n"
      << "  alphabet: " << h.alphabet_size
      << "  dictionary: " << h.dict_size << " names\n"
      << "  taxonomy: height " << reader->taxonomy().height() << ", "
      << h.taxonomy_num_roots << " roots, id space "
      << h.taxonomy_id_space << "\n"
      << "  segments: " << h.num_segments << "\n"
      << "  sections:\n";
  for (const storage::SectionEntry& e : reader->sections()) {
    out << "    " << storage::SectionIdName(storage::SectionId(e.id))
        << ": offset " << e.offset << ", "
        << FormatBytes(static_cast<int64_t>(e.size)) << "\n";
  }
  if (const SegmentCatalog* catalog = reader->catalog()) {
    out << "  catalog: " << catalog->num_segments() << " segments, "
        << catalog->tracked_ids().size() << " tracked items, "
        << catalog->bitset_bits() << "-bit segment bitsets, mean fill "
        << FormatDouble(catalog->MeanBitsetFill() * 100.0, 1) << "%\n";
    if (!catalog->tracked_ids().empty()) {
      out << "  tracked:";
      for (ItemId id : catalog->tracked_ids()) {
        out << " " << reader->dict().Name(id);
      }
      out << "\n";
    }
  } else {
    out << "  catalog: none (v" << h.version
        << " stores carry no segment catalog)\n";
  }
  Status checksums = reader->VerifyChecksums();
  if (!checksums.ok()) {
    err << "error: " << checksums << "\n";
    return 1;
  }
  out << "  checksums: OK\n";
  return 0;
}

// --- datagen ----------------------------------------------------------

int DatagenCommand(const std::vector<const char*>& argv,
                   std::ostream& out, std::ostream& err) {
  ArgParser args("flipper_cli datagen",
                 "Generate a synthetic dataset (the paper's §5 "
                 "workloads) and write it straight to a FlipperStore "
                 "(.fdb) — no text intermediate.");
  args.AddPositional("scenario", "groceries|census|medline|quest");
  args.AddPositional("output", "the .fdb file to write");
  args.AddFlag("txns",
               "transaction count (default: the scenario's paper size)",
               "N");
  args.AddFlag("seed", "generator seed (default: scenario default)",
               "N");
  args.AddFlag("phases",
               "quest only: split the stream into N consecutive phases "
               "drawing from disjoint pattern-pool slices (temporal "
               "skew; default 0 = stationary)",
               "N");
  AddWriterFlags(&args);

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }
  auto options = ParseWriterOptions(args);
  if (!options.ok()) {
    err << "error: " << options.status() << "\n";
    return 2;
  }
  auto txns = args.GetInt("txns", 0);
  auto seed = args.GetInt("seed", -1);
  auto phases = args.GetInt("phases", 0);
  if (!txns.ok() || !seed.ok() || !phases.ok()) {
    err << "error: "
        << (!txns.ok() ? txns.status()
                       : (!seed.ok() ? seed.status() : phases.status()))
        << "\n";
    return 2;
  }
  if (*txns < 0 || *txns > std::numeric_limits<uint32_t>::max()) {
    err << "error: --txns must be a non-negative 32-bit count\n";
    return 2;
  }
  if (*phases < 0 || *phases > std::numeric_limits<uint32_t>::max()) {
    err << "error: --phases must be a non-negative 32-bit count\n";
    return 2;
  }
  const auto num_txns = static_cast<uint32_t>(*txns);

  const std::string& scenario = args.GetPositional("scenario");
  if (scenario != "groceries" && scenario != "census" &&
      scenario != "medline" && scenario != "quest") {
    err << "error: scenario must be groceries|census|medline|quest, "
           "got '"
        << scenario << "'\n";
    return 2;
  }
  if (*phases > 0 && scenario != "quest") {
    err << "error: --phases is only supported by the quest scenario\n";
    return 2;
  }
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
  if (scenario == "quest") {
    TaxonomyGenParams tax_params;  // paper §5.1: 10 roots x fanout 5
    auto built = GenerateBalancedTaxonomy(tax_params, &dict);
    if (!built.ok()) {
      err << "error: " << built.status() << "\n";
      return 1;
    }
    taxonomy = std::move(built).value();
    QuestParams params;
    if (num_txns > 0) params.num_transactions = num_txns;
    if (*seed >= 0) params.seed = static_cast<uint64_t>(*seed);
    params.phases = static_cast<uint32_t>(*phases);
    auto generated = GenerateQuest(params, taxonomy);
    if (!generated.ok()) {
      err << "error: " << generated.status() << "\n";
      return 1;
    }
    db = std::move(generated).value();
  } else {
    Result<SimulatedDataset> generated = [&]() {
      if (scenario == "groceries") {
        GroceriesParams params;
        if (num_txns > 0) params.num_transactions = num_txns;
        if (*seed >= 0) params.seed = static_cast<uint64_t>(*seed);
        return GenerateGroceries(params);
      }
      if (scenario == "census") {
        CensusParams params;
        if (num_txns > 0) params.num_records = num_txns;
        if (*seed >= 0) params.seed = static_cast<uint64_t>(*seed);
        return GenerateCensus(params);
      }
      MedlineParams params;
      if (num_txns > 0) params.num_citations = num_txns;
      if (*seed >= 0) params.seed = static_cast<uint64_t>(*seed);
      return GenerateMedline(params);
    }();
    if (!generated.ok()) {
      err << "error: " << generated.status() << "\n";
      return 1;
    }
    dict = std::move(generated->dict);
    taxonomy = std::move(generated->taxonomy);
    db = std::move(generated->db);
  }

  const std::string& output = args.GetPositional("output");
  Status written =
      storage::WriteStoreFile(output, db, dict, taxonomy, *options);
  if (!written.ok()) {
    err << "error: " << written << "\n";
    return 1;
  }
  out << "wrote " << output << " (v" << storage::kFormatVersionV1
      << "): " << scenario << ", "
      << FormatCount(static_cast<int64_t>(db.size()))
      << " transactions, "
      << FormatCount(static_cast<int64_t>(db.total_items())) << " items, "
      << dict.size() << " names\n";
  return 0;
}

// --- serve / query / loadgen ------------------------------------------

#ifndef _WIN32

/// Write end of the serve command's signal self-pipe. The handler may
/// only do async-signal-safe work, so it writes one byte here; a
/// helper thread blocked on the read end performs the actual graceful
/// Stop(). -1 while no serve command is active.
std::atomic<int> g_serve_signal_wfd{-1};

void HandleServeSignal(int) {
  const int wfd = g_serve_signal_wfd.load(std::memory_order_relaxed);
  if (wfd >= 0) {
    const char byte = 1;
    // The pipe is never full (one byte per signal, drained promptly);
    // a failed write just means we are already tearing down.
    [[maybe_unused]] const ssize_t n = ::write(wfd, &byte, 1);
  }
}

#endif  // !_WIN32

/// Range-checked int flag for the service commands; usage errors quote
/// the flag and land on exit 2 in the caller.
Result<int64_t> GetCheckedInt(const ArgParser& args,
                              const std::string& key, int64_t fallback,
                              int64_t lo, int64_t hi) {
  FLIPPER_ASSIGN_OR_RETURN(int64_t v, args.GetInt(key, fallback));
  if (v < lo || v > hi) {
    return Status::InvalidArgument(
        "--" + key + " must be in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got '" + args.GetString(key, "") + "'");
  }
  return v;
}

int ServeCommand(const std::vector<const char*>& argv, std::ostream& out,
                 std::ostream& err) {
  ArgParser args(
      "flipper_cli serve",
      "Run the long-lived mining daemon: mmap the given FlipperStore "
      "(.fdb) files once, pre-build their level views, and serve "
      "framed `mine`/`stats`/`list`/`ping`/`shutdown` requests over a "
      "unix-domain socket. Queries run through the re-entrant miner "
      "over the shared store views behind FIFO admission control and "
      "a result cache; per-query results are byte-identical to solo "
      "`flipper_cli mine` runs with the same options.");
  args.AddFlag("socket", "unix-domain socket path to listen on", "PATH");
  args.AddFlag("stores",
               "comma-separated NAME=PATH.fdb store registrations",
               "NAME=PATH,...");
  args.AddFlag("max-concurrent",
               "mining queries executing at once (default 8)", "N");
  args.AddFlag("max-queued",
               "waiting-room size before `error overloaded` "
               "(default 64)",
               "N");
  args.AddFlag("cache-mb",
               "result-cache budget in MiB, 0 disables (default 64)",
               "N");
  args.AddSwitch("no-validate",
                 "skip the stores' payload validation scan on open and "
                 "reload (trusted files only)");
  args.AddFlag("default-deadline-ms",
               "deadline applied to mine queries that send no "
               "deadline_ms of their own (default 0 = none)",
               "N");
  args.AddFlag("max-deadline-ms",
               "upper clamp on any query deadline; bounds even "
               "queries that sent none (default 0 = unlimited)",
               "N");
  args.AddFlag("drain-grace-ms",
               "how long shutdown lets in-flight queries finish "
               "before cancelling them (default 5000)",
               "N");
  args.AddFlag("io-timeout-ms",
               "drop a connection whose started request frame or "
               "pending reply makes no progress for N ms, "
               "0 = unbounded (default 30000)",
               "N");
  args.AddFlag("pidfile",
               "write the daemon's pid here on startup, remove it on "
               "exit",
               "PATH");

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }

  service::ServerOptions options;
  options.socket_path = args.GetString("socket", "");
  if (options.socket_path.empty()) {
    err << "error: --socket is required\n\n" << args.HelpText();
    return 2;
  }
  const auto max_concurrent =
      GetCheckedInt(args, "max-concurrent", 8, 1, 1 << 16);
  const auto max_queued = GetCheckedInt(args, "max-queued", 64, 0, 1 << 20);
  const auto cache_mb = GetCheckedInt(args, "cache-mb", 64, 0, 1 << 20);
  const auto default_deadline_ms =
      GetCheckedInt(args, "default-deadline-ms", 0, 0, 24 * 3600 * 1000);
  const auto max_deadline_ms =
      GetCheckedInt(args, "max-deadline-ms", 0, 0, 24 * 3600 * 1000);
  const auto drain_grace_ms =
      GetCheckedInt(args, "drain-grace-ms", 5000, 0, 10 * 60 * 1000);
  const auto io_timeout_ms =
      GetCheckedInt(args, "io-timeout-ms", 30000, 0, 10 * 60 * 1000);
  for (const auto* checked :
       {&max_concurrent, &max_queued, &cache_mb, &default_deadline_ms,
        &max_deadline_ms, &drain_grace_ms, &io_timeout_ms}) {
    if (!checked->ok()) {
      err << "error: " << checked->status() << "\n\n" << args.HelpText();
      return 2;
    }
  }
  options.max_concurrent = static_cast<int>(*max_concurrent);
  options.max_queued = static_cast<int>(*max_queued);
  options.cache_bytes = static_cast<size_t>(*cache_mb) << 20;
  options.validate_stores = !args.GetSwitch("no-validate");
  options.default_deadline_ms = static_cast<int>(*default_deadline_ms);
  options.max_deadline_ms = static_cast<int>(*max_deadline_ms);
  options.drain_grace_ms = static_cast<int>(*drain_grace_ms);
  options.io_timeout_ms = static_cast<int>(*io_timeout_ms);

  const std::string stores = args.GetString("stores", "");
  if (stores.empty()) {
    err << "error: --stores is required\n\n" << args.HelpText();
    return 2;
  }
  service::Server server(options);
  size_t num_stores = 0;
  for (const std::string& spec : Split(stores, ',')) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      err << "error: --stores entries must be NAME=PATH, got '" << spec
          << "'\n\n"
          << args.HelpText();
      return 2;
    }
    Status added =
        server.AddStore(spec.substr(0, eq), spec.substr(eq + 1));
    if (!added.ok()) {
      err << "error: " << added << "\n";
      return 1;
    }
    ++num_stores;
  }

  Status started = server.Start();
  if (!started.ok()) {
    err << "error: " << started << "\n";
    return 1;
  }
#ifndef _WIN32
  const std::string pidfile = args.GetString("pidfile", "");
  if (!pidfile.empty()) {
    std::ofstream pf(pidfile, std::ios::trunc);
    pf << ::getpid() << "\n";
    pf.flush();
    if (!pf) {
      err << "error: cannot write pidfile '" << pidfile << "'\n";
      server.Stop();
      return 1;
    }
  }
  // SIGINT/SIGTERM request the same graceful drain as the `shutdown`
  // verb. The handler only writes to a self-pipe; this helper thread
  // does the real Stop() (which is idempotent against the shutdown
  // verb racing it).
  int sig_pipe[2] = {-1, -1};
  std::thread signal_thread;
  struct sigaction old_int {};
  struct sigaction old_term {};
  if (::pipe(sig_pipe) == 0) {
    g_serve_signal_wfd.store(sig_pipe[1], std::memory_order_relaxed);
    struct sigaction sa {};
    sa.sa_handler = HandleServeSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, &old_int);
    ::sigaction(SIGTERM, &sa, &old_term);
    signal_thread = std::thread([&server, rfd = sig_pipe[0]] {
      char byte;
      // Blocks until a signal writes a byte, or teardown closes the
      // write end (read returns 0: exit without stopping again).
      if (::read(rfd, &byte, 1) > 0) server.Stop();
    });
  }
#endif
  // The readiness line: scripts wait for it (or ping) before sending
  // queries. Flush so a pipe-captured stdout sees it immediately.
  out << "serving " << num_stores << " store"
      << (num_stores == 1 ? "" : "s") << " on " << server.socket_path()
      << "\n";
  out.flush();
  server.Wait();
#ifndef _WIN32
  if (sig_pipe[1] >= 0) {
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGTERM, &old_term, nullptr);
    g_serve_signal_wfd.store(-1, std::memory_order_relaxed);
    ::close(sig_pipe[1]);  // wakes the helper if no signal ever came
    if (signal_thread.joinable()) signal_thread.join();
    ::close(sig_pipe[0]);
  }
  if (!pidfile.empty()) ::unlink(pidfile.c_str());
#endif

  const MetricsRegistry::Snapshot summary = server.metrics().Snap();
  const auto counter = [&summary](const std::string& name) -> int64_t {
    const auto it = summary.counters.find(name);
    return it == summary.counters.end() ? 0 : it->second;
  };
  out << "shutdown: " << counter("queries.total") << " queries ("
      << counter("queries.ok") << " ok, " << counter("queries.rejected")
      << " rejected), " << counter("cache.hits") << " cache hits\n";
  return 0;
}

int QueryCommand(const std::vector<const char*>& argv, std::ostream& out,
                 std::ostream& err) {
  ArgParser args(
      "flipper_cli query",
      "Send one request to a running serve daemon. The response body "
      "goes to stdout (for `mine` it is byte-identical to a solo "
      "`flipper_cli mine` run with the same options); response meta "
      "lines go to stderr as `# key value`.");
  args.AddFlag("socket", "the daemon's unix-domain socket path", "PATH");
  args.AddFlag("op", "mine|stats|list|ping|shutdown (default mine)",
               "VERB");
  args.AddFlag("store", "which registered store to mine", "NAME");
  args.AddFlag("wait-ms",
               "retry the connection until the daemon answers a ping "
               "or this many ms elapse (default 0 = single attempt)",
               "N");
  args.AddFlag("deadline-ms",
               "per-query deadline: sent to the daemon as the mine "
               "deadline and, plus slack, bounding this client's "
               "socket waits (default 0 = none)",
               "N");
  args.AddSwitch("no-cache",
                 "ask the daemon to bypass its result cache for this "
                 "query");
  args.AddFlag("gamma", "positive correlation threshold", "FLOAT");
  args.AddFlag("epsilon", "negative correlation threshold", "FLOAT");
  args.AddFlag("minsup", "comma-separated per-level minimum supports",
               "F1,F2,...");
  args.AddFlag("measure", "correlation measure name", "NAME");
  args.AddFlag("pruning", "full|tpg|flipping|support", "NAME");
  args.AddFlag("threads", "worker threads for counting", "N");
  args.AddFlag("topk", "keep only the K widest flips", "K");
  args.AddFlag("format", "text|csv|json (default text)", "NAME");

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }

  const std::string socket_path = args.GetString("socket", "");
  if (socket_path.empty()) {
    err << "error: --socket is required\n\n" << args.HelpText();
    return 2;
  }
  const std::string op = args.GetString("op", "mine");
  if (op != "mine" && op != "stats" && op != "list" && op != "ping" &&
      op != "shutdown") {
    err << "error: --op must be mine|stats|list|ping|shutdown, got '"
        << op << "'\n\n"
        << args.HelpText();
    return 2;
  }
  const auto wait_ms =
      GetCheckedInt(args, "wait-ms", 0, 0, 10 * 60 * 1000);
  const auto deadline_ms =
      GetCheckedInt(args, "deadline-ms", 0, 0, 10 * 60 * 1000);
  for (const auto* checked : {&wait_ms, &deadline_ms}) {
    if (!checked->ok()) {
      err << "error: " << checked->status() << "\n\n" << args.HelpText();
      return 2;
    }
  }

  service::Request request;
  request.verb = op;
  if (op == "mine") {
    const std::string store = args.GetString("store", "");
    if (store.empty()) {
      err << "error: --store is required for --op mine\n\n"
          << args.HelpText();
      return 2;
    }
    request.params.emplace_back("store", store);
    // Validate every mine option client-side with the same checked
    // parser the daemon runs, so a typo fails here as a usage error
    // (exit 2) instead of a round trip.
    service::MineRequest probe;
    for (const std::string& key : service::MineOptionKeys()) {
      if (!args.Has(key)) continue;
      const std::string value = args.GetString(key, "");
      const Status applied =
          service::ApplyMineOption(&probe, key, value);
      if (!applied.ok()) {
        err << "error: " << applied << "\n\n" << args.HelpText();
        return 2;
      }
      request.params.emplace_back(key, value);
    }
    if (args.GetSwitch("no-cache")) {
      request.params.emplace_back("cache", "off");
    }
    if (*deadline_ms > 0) {
      request.params.emplace_back("deadline_ms",
                                  std::to_string(*deadline_ms));
    }
  }

  auto client =
      *wait_ms > 0
          ? service::Client::ConnectWithRetry(socket_path,
                                              static_cast<int>(*wait_ms))
          : service::Client::Connect(socket_path);
  if (!client.ok()) {
    err << "error: " << client.status() << "\n";
    return 1;
  }
  // The daemon answers a deadlined query within its deadline plus
  // admission/render overhead; the slack keeps a healthy-but-busy
  // daemon from tripping the client bound first.
  const int io_timeout_ms =
      *deadline_ms > 0 ? static_cast<int>(*deadline_ms) + 5000 : 0;
  auto response = client->Call(request, io_timeout_ms);
  if (!response.ok()) {
    err << "error: " << response.status() << "\n";
    return 1;
  }
  for (const auto& [key, value] : response->meta) {
    err << "# " << key << " " << value << "\n";
  }
  if (!response->ok) {
    err << "error: " << response->error << "\n";
    return 1;
  }
  out << response->body;
  return 0;
}

/// The loadgen request mix: distinct output-affecting configs, so no
/// variant's body answers another's, plus enough repetition per variant
/// to guarantee cache hits. Variants 1 and 2 share a mining spec, so
/// the daemon mines it once and renders the other from its list.
const std::vector<std::vector<std::pair<std::string, std::string>>>&
LoadgenVariants() {
  static const std::vector<
      std::vector<std::pair<std::string, std::string>>>
      kVariants = {
          {{"format", "csv"}},
          {{"format", "csv"}, {"threads", "2"}, {"topk", "5"}},
          {{"format", "csv"}, {"gamma", "0.5"}},
          {{"format", "json"}, {"epsilon", "0.05"}},
      };
  return kVariants;
}

int LoadgenCommand(const std::vector<const char*>& argv,
                   std::ostream& out, std::ostream& err) {
  ArgParser args(
      "flipper_cli loadgen",
      "Drive a running serve daemon with concurrent mining queries "
      "cycling through a fixed grid of configurations, byte-verifying "
      "every response against a solo in-process mine of the same "
      "store (--expect-from) and reporting client-side latency "
      "percentiles and cache hits. Exits non-zero on any failed "
      "query or body mismatch.");
  args.AddFlag("socket", "the daemon's unix-domain socket path", "PATH");
  args.AddFlag("store", "which registered store to mine", "NAME");
  args.AddFlag("requests", "total requests to send (default 32)", "N");
  args.AddFlag("connections",
               "concurrent client connections (default 8)", "N");
  args.AddFlag("wait-ms",
               "daemon readiness timeout per connection (default "
               "10000)",
               "N");
  args.AddFlag("expect-from",
               "the daemon's .fdb file for this store; loadgen mines "
               "it solo per variant and byte-compares every response "
               "body against that expectation",
               "PATH");
  args.AddFlag("deadline-ms",
               "per-request deadline_ms param sent with every mine "
               "(default 0 = none)",
               "N");
  args.AddFlag("chaos",
               "after the main run, torture the daemon with this many "
               "fault-injected connections (random mid-frame kills "
               "and stalls in both directions), then verify it still "
               "serves (default 0)",
               "N");
  args.AddFlag("chaos-seed",
               "rng seed for the chaos fault offsets (default 1)",
               "N");

  Status parse_status =
      args.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parse_status.ok()) {
    err << "error: " << parse_status << "\n\n" << args.HelpText();
    return 2;
  }
  if (args.help_requested()) {
    out << args.HelpText();
    return 0;
  }

  const std::string socket_path = args.GetString("socket", "");
  const std::string store = args.GetString("store", "");
  if (socket_path.empty() || store.empty()) {
    err << "error: --socket and --store are required\n\n"
        << args.HelpText();
    return 2;
  }
  const auto requests = GetCheckedInt(args, "requests", 32, 1, 1 << 20);
  const auto connections =
      GetCheckedInt(args, "connections", 8, 1, 1 << 10);
  const auto wait_ms =
      GetCheckedInt(args, "wait-ms", 10000, 1, 10 * 60 * 1000);
  const auto deadline_ms =
      GetCheckedInt(args, "deadline-ms", 0, 0, 10 * 60 * 1000);
  const auto chaos = GetCheckedInt(args, "chaos", 0, 0, 1 << 20);
  const auto chaos_seed = GetCheckedInt(
      args, "chaos-seed", 1, 0, std::numeric_limits<int64_t>::max());
  for (const auto* checked : {&requests, &connections, &wait_ms,
                              &deadline_ms, &chaos, &chaos_seed}) {
    if (!checked->ok()) {
      err << "error: " << checked->status() << "\n\n" << args.HelpText();
      return 2;
    }
  }

  const auto& variants = LoadgenVariants();
  // Solo expectations: mine the store in-process, one run per variant,
  // through the same ExecuteMineRequest the daemon uses — the byte
  // oracle for every response.
  std::vector<std::string> expected;
  const std::string expect_from = args.GetString("expect-from", "");
  if (!expect_from.empty()) {
    auto reader = storage::StoreReader::Open(expect_from);
    if (!reader.ok()) {
      err << "error: " << reader.status() << "\n";
      return 1;
    }
    for (const auto& params : variants) {
      auto mine = service::MineRequestFromParams(params);
      if (!mine.ok()) {
        err << "error: " << mine.status() << "\n";
        return 1;
      }
      auto outcome = service::ExecuteMineRequest(
          reader->db(), reader->taxonomy(), &reader->dict(), nullptr,
          *mine, nullptr);
      if (!outcome.ok()) {
        err << "error: solo expectation mine failed: "
            << outcome.status() << "\n";
        return 1;
      }
      expected.push_back(std::move(outcome->body));
    }
  }

  const int64_t total = *requests;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> cache_hits{0};
  std::mutex report_mu;
  std::vector<double> latencies_ms;
  std::vector<std::string> error_lines;
  const auto record_error = [&](std::string line) {
    std::lock_guard<std::mutex> lock(report_mu);
    if (error_lines.size() < 8) error_lines.push_back(std::move(line));
  };

  WallTimer wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(*connections));
  for (int64_t c = 0; c < *connections; ++c) {
    workers.emplace_back([&]() {
      auto client = service::Client::ConnectWithRetry(
          socket_path, static_cast<int>(*wait_ms));
      if (!client.ok()) {
        // Every request this worker would have taken counts as failed.
        while (next.fetch_add(1) < total) failures.fetch_add(1);
        record_error("connect: " + client.status().ToString());
        return;
      }
      // Transient `error overloaded` responses (the waiting room
      // momentarily full) are retried with jittered backoff instead
      // of counting as failures; decorrelate workers by seed.
      JitteredBackoff::Options retry_options;
      retry_options.initial_ms = 5;
      retry_options.max_ms = 200;
      JitteredBackoff retry_backoff(
          0x6c6f6164u ^ static_cast<uint64_t>(next.load()),
          retry_options);
      const int io_timeout_ms =
          *deadline_ms > 0 ? static_cast<int>(*deadline_ms) + 5000 : 0;
      while (true) {
        const int64_t r = next.fetch_add(1);
        if (r >= total) break;
        const size_t v = static_cast<size_t>(r) % variants.size();
        service::Request request;
        request.verb = "mine";
        request.params.emplace_back("store", store);
        for (const auto& [key, value] : variants[v]) {
          request.params.emplace_back(key, value);
        }
        if (*deadline_ms > 0) {
          request.params.emplace_back("deadline_ms",
                                      std::to_string(*deadline_ms));
        }
        WallTimer timer;
        auto response = client->Call(request, io_timeout_ms);
        for (int attempt = 0;
             attempt < 6 && response.ok() && !response->ok &&
             response->error.find("overloaded") != std::string::npos;
             ++attempt) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(retry_backoff.NextDelayMs()));
          response = client->Call(request, io_timeout_ms);
        }
        retry_backoff.Reset();
        const double ms = timer.ElapsedSeconds() * 1e3;
        if (!response.ok() || !response->ok) {
          failures.fetch_add(1);
          record_error("request " + std::to_string(r) + ": " +
                       (response.ok() ? response->error
                                      : response.status().ToString()));
          continue;
        }
        if (response->Meta("cache") == "hit") cache_hits.fetch_add(1);
        if (!expected.empty() && response->body != expected[v]) {
          mismatches.fetch_add(1);
          record_error("request " + std::to_string(r) + ": body of " +
                       std::to_string(response->body.size()) +
                       " bytes differs from the solo mine's " +
                       std::to_string(expected[v].size()) + " bytes");
        }
        std::lock_guard<std::mutex> lock(report_mu);
        latencies_ms.push_back(ms);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed_s = wall.ElapsedSeconds();

  int64_t chaos_run = 0;
  bool chaos_healthy = true;
#ifndef _WIN32
  if (*chaos > 0) {
    // Chaos pass: fault-injected connections that kill or stall the
    // socket at random byte offsets in both directions — mid-prefix,
    // mid-payload, anywhere. Any client-side outcome is acceptable;
    // what must hold is that the daemon still serves afterwards.
    std::atomic<int64_t> chaos_next{0};
    const int64_t chaos_total = *chaos;
    const uint64_t seed = static_cast<uint64_t>(*chaos_seed);
    std::vector<std::thread> chaos_workers;
    const int64_t chaos_threads =
        std::min<int64_t>(*connections, chaos_total);
    for (int64_t t = 0; t < chaos_threads; ++t) {
      chaos_workers.emplace_back([&]() {
        while (true) {
          const int64_t r = chaos_next.fetch_add(1);
          if (r >= chaos_total) break;
          Rng rng(seed +
                  static_cast<uint64_t>(r) * 0x9e3779b97f4a7c15ull);
          auto fd = service::Client::ConnectRawFd(socket_path);
          if (!fd.ok()) continue;  // daemon momentarily busy: fine
          service::Request request;
          request.verb = "mine";
          request.params.emplace_back("store", store);
          for (const auto& [key, value] :
               variants[static_cast<size_t>(r) % variants.size()]) {
            request.params.emplace_back(key, value);
          }
          const std::string payload = service::EncodeRequest(request);
          const uint64_t frame_bytes = payload.size() + 4;
          service::StreamFaultPlan plan;
          switch (rng.Below(4)) {
            case 0:
              plan.kill_after_write_bytes = rng.Below(frame_bytes + 1);
              break;
            case 1:
              plan.kill_after_read_bytes = rng.Below(64);
              break;
            case 2:
              plan.stall_before_write_byte = rng.Below(frame_bytes + 1);
              plan.stall_ms = 10 + static_cast<int>(rng.Below(40));
              break;
            default:
              plan.stall_before_read_byte = rng.Below(64);
              plan.stall_ms = 10 + static_cast<int>(rng.Below(40));
              break;
          }
          service::FaultInjectingStream stream(*fd, plan);
          service::FrameIo io;
          io.idle_timeout_ms = 2000;
          io.io_timeout_ms = 2000;
          if (service::WriteFrame(&stream, payload, io).ok()) {
            (void)service::ReadFrame(&stream, io);
          }
          ::close(*fd);
        }
      });
    }
    for (std::thread& w : chaos_workers) w.join();
    chaos_run = chaos_total;
    // Post-storm health check: a fresh connection must complete a
    // real mine (byte-verified when an oracle is available).
    auto survivor = service::Client::ConnectWithRetry(
        socket_path, static_cast<int>(*wait_ms));
    bool healthy = false;
    if (survivor.ok()) {
      service::Request request;
      request.verb = "mine";
      request.params.emplace_back("store", store);
      for (const auto& [key, value] : variants[0]) {
        request.params.emplace_back(key, value);
      }
      auto response = survivor->Call(request, 60000);
      healthy = response.ok() && response->ok &&
                (expected.empty() || response->body == expected[0]);
    }
    chaos_healthy = healthy;
    if (!healthy) record_error("daemon unhealthy after the chaos pass");
  }
#endif  // !_WIN32

  std::sort(latencies_ms.begin(), latencies_ms.end());
  out << "loadgen: " << total << " requests over " << *connections
      << " connections in " << FormatDouble(elapsed_s, 2) << " s: "
      << failures.load() << " failed, " << mismatches.load()
      << " mismatched, " << cache_hits.load() << " cache hits"
      << (expected.empty() ? " (no --expect-from; bodies unverified)"
                           : "")
      << "\n"
      << "latency ms: p50 "
      << FormatDouble(NearestRank(latencies_ms, 0.50), 3) << ", p95 "
      << FormatDouble(NearestRank(latencies_ms, 0.95), 3) << ", max "
      << FormatDouble(latencies_ms.empty() ? 0.0 : latencies_ms.back(),
                      3)
      << "\n";
  if (chaos_run > 0) {
    out << "chaos: " << chaos_run << " fault-injected requests, daemon "
        << (chaos_healthy ? "healthy" : "UNHEALTHY") << "\n";
  }
  for (const std::string& line : error_lines) {
    err << "error: " << line << "\n";
  }
  return failures.load() > 0 || mismatches.load() > 0 || !chaos_healthy
             ? 1
             : 0;
}

constexpr char kTopLevelHelp[] =
    "flipper_cli — flipping-correlation mining toolkit\n"
    "\n"
    "usage:\n"
    "  flipper_cli mine <basket> <taxonomy> [flags]\n"
    "  flipper_cli mine --input <data.fdb> [flags]\n"
    "  flipper_cli convert <basket> <taxonomy> <out.fdb>\n"
    "  flipper_cli convert --from-fdb <in.fdb> <out.fdb>\n"
    "  flipper_cli inspect <data.fdb>\n"
    "  flipper_cli validate <data.fdb>\n"
    "  flipper_cli repair <data.fdb> [--apply]\n"
    "  flipper_cli datagen <scenario> <out.fdb>\n"
    "  flipper_cli serve --socket <sock> --stores NAME=PATH,...\n"
    "  flipper_cli query --socket <sock> [--op mine] --store NAME "
    "[flags]\n"
    "  flipper_cli loadgen --socket <sock> --store NAME "
    "[--expect-from <data.fdb>]\n"
    "  flipper_cli <basket> <taxonomy> [flags]   (legacy: mine)\n"
    "\n"
    "run `flipper_cli <command> --help` for the command's flags.\n";

}  // namespace

int RunFlipperCli(int argc, const char* const* argv, std::ostream& out,
                  std::ostream& err) {
  const auto sub_argv = [&](const char* program) {
    std::vector<const char*> sub;
    sub.push_back(program);
    for (int i = 2; i < argc; ++i) sub.push_back(argv[i]);
    return sub;
  };
  if (argc >= 2) {
    const std::string_view command(argv[1]);
    if (command == "mine") {
      return MineCommand(sub_argv("flipper_cli mine"), out, err);
    }
    if (command == "convert") {
      return ConvertCommand(sub_argv("flipper_cli convert"), out, err);
    }
    if (command == "inspect") {
      return InspectCommand(sub_argv("flipper_cli inspect"), out, err);
    }
    if (command == "validate") {
      return ValidateCommand(sub_argv("flipper_cli validate"), out, err);
    }
    if (command == "repair") {
      return RepairCommand(sub_argv("flipper_cli repair"), out, err);
    }
    if (command == "datagen") {
      return DatagenCommand(sub_argv("flipper_cli datagen"), out, err);
    }
    if (command == "serve") {
      return ServeCommand(sub_argv("flipper_cli serve"), out, err);
    }
    if (command == "query") {
      return QueryCommand(sub_argv("flipper_cli query"), out, err);
    }
    if (command == "loadgen") {
      return LoadgenCommand(sub_argv("flipper_cli loadgen"), out, err);
    }
    if (argc == 2 && (command == "--help" || command == "-h")) {
      out << kTopLevelHelp;
      return 0;
    }
  }
  // Legacy spelling: flipper_cli <basket> <taxonomy> [flags].
  std::vector<const char*> legacy(argv, argv + argc);
  return MineCommand(legacy, out, err);
}

}  // namespace flipper
