#include "serve/protocol.h"

#include <cmath>

#include "stats/stratification.h"
#include "util/string_util.h"

namespace kgacc::serve {

namespace {

Result<uint64_t> AsCount(const JsonValue& value, const std::string& key) {
  if (!value.is_number()) {
    return Status::InvalidArgument(
        StrFormat("'%s' must be a number", key.c_str()));
  }
  const double number = value.AsNumber();
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53.
  if (!(number >= 0.0) || number > kMaxExact || number != std::floor(number)) {
    return Status::InvalidArgument(
        StrFormat("'%s' is not a valid count: %g", key.c_str(), number));
  }
  return static_cast<uint64_t>(number);
}

Result<double> AsDouble(const JsonValue& value, const std::string& key) {
  if (!value.is_number()) {
    return Status::InvalidArgument(
        StrFormat("'%s' must be a number", key.c_str()));
  }
  return value.AsNumber();
}

}  // namespace

Status ParseEvaluationOptions(const JsonValue& json, EvaluationOptions* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("'options' must be a JSON object");
  }
  for (const auto& [key, value] : json.AsObject()) {
    if (key == "moe_target") {
      KGACC_ASSIGN_OR_RETURN(out->moe_target, AsDouble(value, key));
    } else if (key == "confidence") {
      KGACC_ASSIGN_OR_RETURN(out->confidence, AsDouble(value, key));
    } else if (key == "min_units") {
      KGACC_ASSIGN_OR_RETURN(out->min_units, AsCount(value, key));
    } else if (key == "batch_units") {
      KGACC_ASSIGN_OR_RETURN(out->batch_units, AsCount(value, key));
    } else if (key == "m") {
      KGACC_ASSIGN_OR_RETURN(out->m, AsCount(value, key));
    } else if (key == "max_cost_seconds") {
      KGACC_ASSIGN_OR_RETURN(out->max_cost_seconds, AsDouble(value, key));
    } else if (key == "max_units") {
      KGACC_ASSIGN_OR_RETURN(out->max_units, AsCount(value, key));
    } else if (key == "seed") {
      KGACC_ASSIGN_OR_RETURN(out->seed, AsCount(value, key));
    } else if (key == "min_stratum_units") {
      KGACC_ASSIGN_OR_RETURN(out->min_stratum_units, AsCount(value, key));
    } else if (key == "num_strata") {
      KGACC_ASSIGN_OR_RETURN(out->num_strata, AsCount(value, key));
      KGACC_RETURN_IF_ERROR(CheckNumStrata(out->num_strata));
    } else if (key == "pilot_size") {
      KGACC_ASSIGN_OR_RETURN(out->pilot_size, AsCount(value, key));
    } else if (key == "pipeline_rounds") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("'pipeline_rounds' must be a bool");
      }
      out->pipeline_rounds = value.AsBool();
    } else if (key == "srs_ci") {
      if (!value.is_string()) {
        return Status::InvalidArgument("'srs_ci' must be a string");
      }
      const std::string& ci = value.AsString();
      if (ci == "wilson") {
        out->srs_ci = CiMethod::kWilson;
      } else if (ci == "wald") {
        out->srs_ci = CiMethod::kWald;
      } else {
        return Status::InvalidArgument(StrFormat(
            "unknown srs_ci '%s' (want wald or wilson)", ci.c_str()));
      }
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown option '%s'", key.c_str()));
    }
  }
  if (!(out->moe_target > 0.0) || !(out->confidence > 0.0) ||
      !(out->confidence < 1.0)) {
    return Status::InvalidArgument("moe_target/confidence out of range");
  }
  if (out->batch_units == 0) {
    return Status::InvalidArgument("batch_units must be >= 1");
  }
  return Status::OK();
}

Status ParseAnnotatorSpec(const JsonValue& json, AnnotatorSpec* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("'annotator' must be a JSON object");
  }
  for (const auto& [key, value] : json.AsObject()) {
    if (key == "annotators") {
      KGACC_ASSIGN_OR_RETURN(out->annotators, AsCount(value, key));
    } else if (key == "noise_rate") {
      KGACC_ASSIGN_OR_RETURN(out->noise_rate, AsDouble(value, key));
    } else if (key == "seed") {
      KGACC_ASSIGN_OR_RETURN(out->seed, AsCount(value, key));
    } else if (key == "annotation_threads") {
      KGACC_ASSIGN_OR_RETURN(const uint64_t threads, AsCount(value, key));
      out->annotation_threads = static_cast<int>(threads);
    } else if (key == "annotation_shards") {
      KGACC_ASSIGN_OR_RETURN(const uint64_t shards, AsCount(value, key));
      out->annotation_shards = static_cast<int>(shards);
    } else if (key == "c1_seconds") {
      KGACC_ASSIGN_OR_RETURN(out->c1_seconds, AsDouble(value, key));
    } else if (key == "c2_seconds") {
      KGACC_ASSIGN_OR_RETURN(out->c2_seconds, AsDouble(value, key));
    } else if (key == "async") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("'async' must be a bool");
      }
      out->async = value.AsBool();
    } else if (key == "latency_ms") {
      KGACC_ASSIGN_OR_RETURN(out->latency_ms, AsDouble(value, key));
    } else if (key == "max_concurrent") {
      KGACC_ASSIGN_OR_RETURN(out->max_concurrent, AsCount(value, key));
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown annotator field '%s'", key.c_str()));
    }
  }
  if (out->annotators == 0) {
    return Status::InvalidArgument("annotators must be >= 1");
  }
  if (!(out->noise_rate >= 0.0 && out->noise_rate <= 1.0)) {
    return Status::InvalidArgument("noise_rate outside [0, 1]");
  }
  if (out->latency_ms < 0.0) {
    return Status::InvalidArgument("latency_ms must be >= 0");
  }
  if (out->max_concurrent == 0) {
    return Status::InvalidArgument("max_concurrent must be >= 1");
  }
  return Status::OK();
}

std::string BuildLoadGraph(const std::string& graph, uint64_t seed) {
  return StrFormat("{\"op\": \"load-graph\", \"graph\": \"%s\", \"seed\": %llu}",
                   JsonEscape(graph).c_str(),
                   static_cast<unsigned long long>(seed));
}

std::string BuildStartCampaign(const std::string& graph,
                               const std::string& design,
                               const std::string& options_json,
                               const std::string& annotator_json) {
  std::string request =
      StrFormat("{\"op\": \"start-campaign\", \"graph\": \"%s\", "
                "\"design\": \"%s\"",
                JsonEscape(graph).c_str(), JsonEscape(design).c_str());
  if (!options_json.empty()) request += ", \"options\": " + options_json;
  if (!annotator_json.empty()) request += ", \"annotator\": " + annotator_json;
  request += "}";
  return request;
}

std::string BuildStep(const std::string& session, uint64_t rounds) {
  return StrFormat("{\"op\": \"step\", \"session\": \"%s\", \"rounds\": %llu}",
                   JsonEscape(session).c_str(),
                   static_cast<unsigned long long>(rounds));
}

std::string BuildQueryEstimate(const std::string& session) {
  return StrFormat("{\"op\": \"query-estimate\", \"session\": \"%s\"}",
                   JsonEscape(session).c_str());
}

std::string BuildStreamTrace(const std::string& session, uint64_t from) {
  return StrFormat(
      "{\"op\": \"stream-trace\", \"session\": \"%s\", \"from\": %llu}",
      JsonEscape(session).c_str(), static_cast<unsigned long long>(from));
}

std::string BuildSuspend(const std::string& session) {
  return StrFormat("{\"op\": \"suspend\", \"session\": \"%s\"}",
                   JsonEscape(session).c_str());
}

std::string BuildResumeSession(const std::string& session) {
  return StrFormat("{\"op\": \"resume\", \"session\": \"%s\"}",
                   JsonEscape(session).c_str());
}

std::string BuildResumeState(const std::string& campaign_state) {
  return StrFormat("{\"op\": \"resume\", \"campaign_state\": \"%s\"}",
                   JsonEscape(campaign_state).c_str());
}

std::string BuildStop(const std::string& session) {
  return StrFormat("{\"op\": \"stop\", \"session\": \"%s\"}",
                   JsonEscape(session).c_str());
}

std::string BuildMetrics() { return "{\"op\": \"metrics\"}"; }

std::string BuildShutdown() { return "{\"op\": \"shutdown\"}"; }

std::string BuildStartTenantCampaign(const std::string& graph,
                                     const std::string& design,
                                     const std::string& options_json,
                                     const std::string& annotator_json,
                                     double weight, double quota_seconds,
                                     const std::string& id) {
  std::string request =
      StrFormat("{\"op\": \"start-campaign\", \"tenant\": true, "
                "\"graph\": \"%s\", \"design\": \"%s\"",
                JsonEscape(graph).c_str(), JsonEscape(design).c_str());
  if (!options_json.empty()) request += ", \"options\": " + options_json;
  if (!annotator_json.empty()) request += ", \"annotator\": " + annotator_json;
  if (weight != 1.0) request += StrFormat(", \"weight\": %.17g", weight);
  if (quota_seconds != 0.0) {
    request += StrFormat(", \"quota_seconds\": %.17g", quota_seconds);
  }
  if (!id.empty()) {
    request += StrFormat(", \"id\": \"%s\"", JsonEscape(id).c_str());
  }
  request += "}";
  return request;
}

std::string BuildSetBudget(double budget_seconds) {
  return StrFormat("{\"op\": \"set-budget\", \"budget_seconds\": %.17g}",
                   budget_seconds);
}

std::string BuildTenantStatus(const std::string& tenant) {
  if (tenant.empty()) return "{\"op\": \"tenant-status\"}";
  return StrFormat("{\"op\": \"tenant-status\", \"tenant\": \"%s\"}",
                   JsonEscape(tenant).c_str());
}

}  // namespace kgacc::serve
