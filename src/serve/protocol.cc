#include "serve/protocol.h"

#include <algorithm>
#include <variant>

#include "util/string_util.h"

namespace kgacc::serve {

namespace {

/// One value field of a T the protocol carries, by its JSON name.
template <typename T>
struct Field {
  const char* name;
  std::variant<double T::*, uint64_t T::*, bool T::*, CiMethod T::*> member;
};

/// EvaluationOptions' value fields (not the borrowed telemetry/control
/// pointers). This list and the next drive both the parser and the
/// campaign_state writer, so the two cannot drift apart.
const Field<EvaluationOptions> kOptionFields[] = {
    {"moe_target", &EvaluationOptions::moe_target},
    {"confidence", &EvaluationOptions::confidence},
    {"min_units", &EvaluationOptions::min_units},
    {"batch_units", &EvaluationOptions::batch_units},
    {"m", &EvaluationOptions::m},
    {"max_cost_seconds", &EvaluationOptions::max_cost_seconds},
    {"max_units", &EvaluationOptions::max_units},
    {"seed", &EvaluationOptions::seed},
    {"min_stratum_units", &EvaluationOptions::min_stratum_units},
    {"srs_ci", &EvaluationOptions::srs_ci},
    {"num_strata", &EvaluationOptions::num_strata},
    {"pilot_size", &EvaluationOptions::pilot_size},
};

const Field<AnnotatorSpec> kAnnotatorFields[] = {
    {"annotators", &AnnotatorSpec::annotators},
    {"noise_rate", &AnnotatorSpec::noise_rate},
    {"seed", &AnnotatorSpec::seed},
    {"annotation_threads", &AnnotatorSpec::annotation_threads},
    {"c1_seconds", &AnnotatorSpec::c1_seconds},
    {"c2_seconds", &AnnotatorSpec::c2_seconds},
    {"async", &AnnotatorSpec::async},
    {"latency_ms", &AnnotatorSpec::latency_ms},
    {"max_concurrent", &AnnotatorSpec::max_concurrent},
};

/// Reads member `key` of `object` into `out`, typed by `out`.
Status Read(const JsonValue& object, const std::string& key, uint64_t* out) {
  KGACC_ASSIGN_OR_RETURN(*out, object.GetCount(key));
  return Status::OK();
}

Status Read(const JsonValue& object, const std::string& key, double* out) {
  KGACC_ASSIGN_OR_RETURN(*out, object.GetNumber(key));
  return Status::OK();
}

Status Read(const JsonValue& object, const std::string& key, bool* out) {
  KGACC_ASSIGN_OR_RETURN(*out, object.GetBool(key));
  return Status::OK();
}

Status Read(const JsonValue& object, const std::string& key, CiMethod* out) {
  const JsonValue& value = *object.Find(key);
  if (value.is_string() && value.AsString() == "wilson") {
    *out = CiMethod::kWilson;
  } else if (value.is_string() && value.AsString() == "wald") {
    *out = CiMethod::kWald;
  } else {
    return Status::InvalidArgument(
        StrFormat("'%s' must be \"wald\" or \"wilson\"", key.c_str()));
  }
  return Status::OK();
}

void Write(uint64_t value, JsonWriter& json) { json.Uint(value); }
void Write(double value, JsonWriter& json) { json.Number(value); }
void Write(bool value, JsonWriter& json) { json.Bool(value); }
void Write(CiMethod value, JsonWriter& json) {
  json.String(value == CiMethod::kWilson ? "wilson" : "wald");
}

/// Applies the members of object `json` (named `what` in errors) to `out`;
/// a member that is not one of `fields` is an error naming it.
template <typename T, size_t N>
Status ParseFields(const JsonValue& json, const char* what,
                   const Field<T> (&fields)[N], T* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument(
        StrFormat("'%s' must be a JSON object", what));
  }
  for (const auto& [key, value] : json.AsObject()) {
    const auto* field = std::find_if(
        std::begin(fields), std::end(fields),
        [&key = key](const Field<T>& f) { return key == f.name; });
    if (field == std::end(fields)) {
      return Status::InvalidArgument(
          StrFormat("unknown %s member '%s'", what, key.c_str()));
    }
    KGACC_RETURN_IF_ERROR(std::visit(
        [&](auto member) { return Read(json, key, &(out->*member)); },
        field->member));
  }
  return Status::OK();
}

template <typename T, size_t N>
void WriteFields(const Field<T> (&fields)[N], const T& in, JsonWriter& json) {
  json.BeginObject();
  for (const Field<T>& field : fields) {
    json.Key(field.name);
    std::visit([&](auto member) { Write(in.*member, json); }, field.member);
  }
  json.EndObject();
}

}  // namespace

Status ParseEvaluationOptions(const JsonValue& json, EvaluationOptions* out) {
  return ParseFields(json, "options", kOptionFields, out);
}

Status ParseAnnotatorSpec(const JsonValue& json, AnnotatorSpec* out) {
  return ParseFields(json, "annotator", kAnnotatorFields, out);
}

Status ParseCampaign(const JsonValue& json, CampaignSessionState* out) {
  KGACC_ASSIGN_OR_RETURN(out->graph, json.GetString("graph"));
  KGACC_ASSIGN_OR_RETURN(out->design, json.GetString("design"));
  if (const JsonValue* options = json.Find("options")) {
    KGACC_RETURN_IF_ERROR(ParseEvaluationOptions(*options, &out->options));
  }
  if (const JsonValue* annotator = json.Find("annotator")) {
    KGACC_RETURN_IF_ERROR(ParseAnnotatorSpec(*annotator, &out->annotator));
  }
  return Status::OK();
}

std::string CampaignStateJson(const CampaignSessionState& state) {
  JsonWriter json;
  json.BeginObject();
  json.Key("design").String(state.design);
  json.Key("graph").String(state.graph);
  json.Key("rounds").Uint(state.rounds_completed);
  json.Key("options");
  WriteFields(kOptionFields, state.options, json);
  json.Key("annotator");
  WriteFields(kAnnotatorFields, state.annotator, json);
  json.EndObject();
  return json.TakeString();
}

Status ParseCampaignState(const JsonValue& json, CampaignSessionState* out) {
  if (json.is_string()) {
    return Status::InvalidArgument(
        "'campaign_state' is a text blob; kgacc-campaign-session v1 blobs "
        "are no longer read: resume takes the JSON object a suspend "
        "returns");
  }
  if (!json.is_object()) {
    return Status::InvalidArgument("'campaign_state' must be a JSON object");
  }
  for (const auto& [key, value] : json.AsObject()) {
    if (key != "design" && key != "graph" && key != "rounds" &&
        key != "options" && key != "annotator") {
      return Status::InvalidArgument(
          StrFormat("unknown key '%s' in a campaign_state", key.c_str()));
    }
  }
  KGACC_RETURN_IF_ERROR(ParseCampaign(json, out));
  if (json.Find("rounds") != nullptr) {
    KGACC_ASSIGN_OR_RETURN(out->rounds_completed, json.GetCount("rounds"));
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
  return "{\"op\": \"resume\", \"campaign_state\": " + campaign_state + "}";
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
