// MineRequest: the canonical, validated description of one mining
// query, shared by the CLI `mine` command and the serve daemon so the
// two paths cannot drift apart.
//
// Every option value — whether it arrived as a --flag on the command
// line or as a `key value` line in a service request — goes through
// ApplyMineOption, the single checked parser: strict numeric parsing
// (no trailing garbage), range validation at parse time, and error
// messages that always quote the offending token. Callers surface the
// Status verbatim (the CLI exits 2 with usage).
//
// A query is two steps: MinePatterns mines the request's mining spec
// (MiningSpecKey) into its full pattern list, and RenderRequest applies
// topk and format to it; ExecuteMineRequest runs both. The daemon's
// body for a request is byte-identical to a solo `flipper_cli mine`
// run's, because every path renders through RenderRequest.

#ifndef FLIPPER_SERVICE_MINE_SERVICE_H_
#define FLIPPER_SERVICE_MINE_SERVICE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/level_views.h"
#include "core/mining_result.h"
#include "core/pattern.h"
#include "data/item_dictionary.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"

namespace flipper {
namespace service {

/// One mining query, fully parsed and range-checked. Defaults mirror
/// the CLI's flag defaults.
struct MineRequest {
  // The mining spec (MiningSpecKey): these decide the pattern list.
  double gamma = 0.3;
  double epsilon = 0.1;
  std::vector<double> min_support = {0.01, 0.001, 0.0005};
  MeasureKind measure = MeasureKind::kKulczynski;
  PruningOptions pruning = PruningOptions::Full();
  // Presentation: with the spec, the full CanonicalCacheKey.
  int64_t topk = 0;  // 0 = keep everything
  std::string format = "text";  // text|csv|json

  // Execution knobs. These never change mining output (the invariance
  // suites prove bit-identical results across all of them), so
  // CanonicalCacheKey() deliberately excludes them: a cached body
  // computed under any knob combination answers them all.
  int num_threads = 0;

  /// Optional cooperative-cancellation token plumbed into the run
  /// (common/cancellation.h). Not an option key and — like the other
  /// execution knobs — never part of CanonicalCacheKey(): an un-fired
  /// token is proven byte-identity-preserving by the fuzz harness. Not
  /// owned; must outlive ExecuteMineRequest.
  const CancelToken* cancel = nullptr;

  /// Optional borrowed worker pool (MiningConfig::pool): the daemon
  /// lends its one pool to every query. Not an option key and never
  /// part of CanonicalCacheKey(); output is byte-identical with or
  /// without it. Not owned; must outlive ExecuteMineRequest.
  ThreadPool* pool = nullptr;
};

/// The option keys ApplyMineOption understands, in CLI flag spelling
/// (gamma, epsilon, minsup, measure, pruning, threads, topk, format).
/// The CLI iterates this list to route every present flag through the
/// checked parser.
const std::vector<std::string>& MineOptionKeys();

/// Parses and validates one option value into `request`. Unknown keys,
/// malformed numbers (trailing garbage included) and out-of-range
/// values fail with a Status naming the key and quoting the offending
/// token.
Status ApplyMineOption(MineRequest* request, std::string_view key,
                       std::string_view value);

/// Builds a request from `key value` pairs (the service protocol's
/// params), applying them in order over the defaults.
Result<MineRequest> MineRequestFromParams(
    const std::vector<std::pair<std::string, std::string>>& params);

/// The MiningConfig this request describes (metrics left null; the
/// caller attaches its per-query registry).
MiningConfig ToMiningConfig(const MineRequest& request);

/// Deterministic key text of the options that decide the pattern list
/// (gamma, epsilon, minsup, measure, pruning): equal spec keys mine the
/// same list over the same store contents.
std::string MiningSpecKey(const MineRequest& request);

/// MiningSpecKey plus topk and format: equal keys produce
/// byte-identical bodies over the same store contents.
std::string CanonicalCacheKey(const MineRequest& request);

/// Renders `patterns` in the request's format — the one emission path
/// behind both the CLI and the daemon. Text format matches the CLI's
/// historical output exactly.
Status RenderPatterns(const std::vector<FlippingPattern>& patterns,
                      const ItemDictionary* dict,
                      const std::string& format, std::ostream& out);

/// What a query run reports besides its body.
struct MineOutcome {
  std::string body;
  size_t num_patterns = 0;
  /// MiningStats::ToString() of the run (the CLI's --stats output).
  std::string stats_text;
};

/// The mine step: FlipperMiner over `shared_views` when non-null (the
/// daemon's borrowed store views; null = build owned views, the solo
/// path). Every pattern of the spec, in canonical order; `metrics` (may
/// be null) receives the run's pipeline metrics.
Result<MiningResult> MinePatterns(const TransactionDb& db,
                                  const Taxonomy& taxonomy,
                                  const LevelViews* shared_views,
                                  const MineRequest& request,
                                  MetricsRegistry* metrics);

/// The present step: the request's top-k of `patterns` (all of them
/// when topk is 0), rendered in its format. Leaves stats_text empty.
Result<MineOutcome> RenderRequest(
    const std::vector<FlippingPattern>& patterns,
    const ItemDictionary* dict, const MineRequest& request);

/// Runs the full query: MinePatterns, then RenderRequest, with the
/// run's stats text.
Result<MineOutcome> ExecuteMineRequest(const TransactionDb& db,
                                       const Taxonomy& taxonomy,
                                       const ItemDictionary* dict,
                                       const LevelViews* shared_views,
                                       const MineRequest& request,
                                       MetricsRegistry* metrics);

}  // namespace service
}  // namespace flipper

#endif  // FLIPPER_SERVICE_MINE_SERVICE_H_
