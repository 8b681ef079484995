#include "service/mine_service.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/string_util.h"
#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "core/topk.h"

namespace flipper {
namespace service {
namespace {

Status BadValue(std::string_view key, std::string_view value,
                std::string_view expected) {
  return Status::InvalidArgument("--" + std::string(key) + " must be " +
                                 std::string(expected) + ", got '" +
                                 std::string(value) + "'");
}

/// Strict double with a range check; quotes the token on any failure.
Status ParseCheckedDouble(std::string_view key, std::string_view value,
                          double lo, bool lo_open, double hi,
                          bool hi_open, std::string_view expected,
                          double* out) {
  auto parsed = ParseDouble(value);
  if (!parsed.ok()) return BadValue(key, value, expected);
  const double v = *parsed;
  const bool below = lo_open ? v <= lo : v < lo;
  const bool above = hi_open ? v >= hi : v > hi;
  if (below || above) return BadValue(key, value, expected);
  *out = v;
  return Status::OK();
}

/// %.17g — round-trips every double, so distinct thresholds can never
/// collide into one cache key.
std::string KeyDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<std::string>& MineOptionKeys() {
  static const std::vector<std::string> kKeys = {
      "gamma",   "epsilon", "minsup", "measure",
      "pruning", "threads", "topk",   "format"};
  return kKeys;
}

Status ApplyMineOption(MineRequest* request, std::string_view key,
                       std::string_view value) {
  if (key == "gamma") {
    return ParseCheckedDouble(key, value, 0.0, true, 1.0, false,
                              "a number in (0, 1]", &request->gamma);
  }
  if (key == "epsilon") {
    return ParseCheckedDouble(key, value, 0.0, false, 1.0, true,
                              "a number in [0, 1)", &request->epsilon);
  }
  if (key == "minsup") {
    std::vector<double> thresholds;
    for (const std::string& token : Split(value, ',')) {
      double v = 0;
      FLIPPER_RETURN_IF_ERROR(ParseCheckedDouble(
          key, token, 0.0, true, 1.0, false,
          "comma-separated fractions in (0, 1]", &v));
      thresholds.push_back(v);
    }
    if (thresholds.empty()) {
      return Status::InvalidArgument(
          "--minsup needs at least one value");
    }
    request->min_support = std::move(thresholds);
    return Status::OK();
  }
  if (key == "measure") {
    FLIPPER_ASSIGN_OR_RETURN(request->measure,
                             ParseMeasureKind(std::string(value)));
    return Status::OK();
  }
  if (key == "pruning") {
    if (value == "full") {
      request->pruning = PruningOptions::Full();
    } else if (value == "tpg") {
      request->pruning = PruningOptions::FlippingTpg();
    } else if (value == "flipping") {
      request->pruning = PruningOptions::FlippingOnly();
    } else if (value == "support") {
      request->pruning = PruningOptions::Basic();
    } else {
      return BadValue(key, value, "one of full|tpg|flipping|support");
    }
    return Status::OK();
  }
  if (key == "threads") {
    auto parsed = ParseInt(value);
    if (!parsed.ok() || *parsed < 0 ||
        *parsed > std::numeric_limits<int>::max()) {
      return BadValue(key, value, "a non-negative thread count");
    }
    request->num_threads = static_cast<int>(*parsed);
    return Status::OK();
  }
  if (key == "topk") {
    auto parsed = ParseInt(value);
    if (!parsed.ok() || *parsed < 0) {
      return BadValue(key, value, "a non-negative pattern count");
    }
    request->topk = *parsed;
    return Status::OK();
  }
  if (key == "format") {
    if (value != "text" && value != "csv" && value != "json") {
      return BadValue(key, value, "text|csv|json");
    }
    request->format = std::string(value);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown mine option '" +
                                 std::string(key) + "'");
}

Result<MineRequest> MineRequestFromParams(
    const std::vector<std::pair<std::string, std::string>>& params) {
  MineRequest request;
  for (const auto& [key, value] : params) {
    FLIPPER_RETURN_IF_ERROR(ApplyMineOption(&request, key, value));
  }
  return request;
}

MiningConfig ToMiningConfig(const MineRequest& request) {
  MiningConfig config;
  config.gamma = request.gamma;
  config.epsilon = request.epsilon;
  config.min_support = request.min_support;
  config.measure = request.measure;
  config.pruning = request.pruning;
  config.num_threads = request.num_threads;
  config.cancel = request.cancel;
  config.pool = request.pool;
  return config;
}

std::string MiningSpecKey(const MineRequest& request) {
  std::string key = "gamma=" + KeyDouble(request.gamma) +
                    ";epsilon=" + KeyDouble(request.epsilon) +
                    ";minsup=";
  for (size_t i = 0; i < request.min_support.size(); ++i) {
    if (i > 0) key += ',';
    key += KeyDouble(request.min_support[i]);
  }
  key += ";measure=";
  key += MeasureKindToString(request.measure);
  key += ";pruning=" + request.pruning.ToString();
  return key;
}

std::string CanonicalCacheKey(const MineRequest& request) {
  return MiningSpecKey(request) + ";topk=" + std::to_string(request.topk) +
         ";format=" + request.format;
}

Status RenderPatterns(const std::vector<FlippingPattern>& patterns,
                      const ItemDictionary* dict,
                      const std::string& format, std::ostream& out) {
  if (format == "csv") return WritePatternsCsv(patterns, dict, out);
  if (format == "json") return WritePatternsJson(patterns, dict, out);
  if (format != "text") {
    return Status::InvalidArgument("--format must be text|csv|json, got '" +
                                   format + "'");
  }
  out << patterns.size() << " flipping patterns\n\n";
  for (const FlippingPattern& p : patterns) {
    out << dict->Render(p.leaf_itemset) << "  (flip gap "
        << FormatDouble(p.FlipGap(), 4) << ")\n"
        << p.ToString(dict) << "\n";
  }
  return Status::OK();
}

Result<MiningResult> MinePatterns(const TransactionDb& db,
                                  const Taxonomy& taxonomy,
                                  const LevelViews* shared_views,
                                  const MineRequest& request,
                                  MetricsRegistry* metrics) {
  MiningConfig config = ToMiningConfig(request);
  config.metrics = metrics;
  return FlipperMiner::Run(db, taxonomy, config, shared_views);
}

Result<MineOutcome> RenderRequest(
    const std::vector<FlippingPattern>& patterns,
    const ItemDictionary* dict, const MineRequest& request) {
  std::vector<FlippingPattern> top;
  if (request.topk > 0) {
    top = TopKMostFlipping(patterns, static_cast<size_t>(request.topk));
  }
  const std::vector<FlippingPattern>& shown =
      request.topk > 0 ? top : patterns;
  std::ostringstream body;
  FLIPPER_RETURN_IF_ERROR(RenderPatterns(shown, dict, request.format, body));
  MineOutcome outcome;
  outcome.body = std::move(body).str();
  outcome.num_patterns = shown.size();
  return outcome;
}

Result<MineOutcome> ExecuteMineRequest(const TransactionDb& db,
                                       const Taxonomy& taxonomy,
                                       const ItemDictionary* dict,
                                       const LevelViews* shared_views,
                                       const MineRequest& request,
                                       MetricsRegistry* metrics) {
  FLIPPER_ASSIGN_OR_RETURN(
      MiningResult result,
      MinePatterns(db, taxonomy, shared_views, request, metrics));
  FLIPPER_ASSIGN_OR_RETURN(MineOutcome outcome,
                           RenderRequest(result.patterns, dict, request));
  outcome.stats_text = result.stats.ToString();
  return outcome;
}

}  // namespace service
}  // namespace flipper
