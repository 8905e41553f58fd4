#include "core/telemetry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/string_util.h"

namespace kgacc {

void TraceRecorder::BeginCampaign(const std::string& design,
                                  const std::string& label) {
  CampaignTrace trace;
  trace.design = design;
  trace.label = label_prefix_ + label;
  campaigns_.push_back(std::move(trace));
  open_ = true;
}

void TraceRecorder::OnRound(const CampaignRound& round) {
  // Tolerate emitters that skip BeginCampaign (bare engine loops in tests):
  // open an anonymous campaign rather than dropping rounds.
  if (!open_) BeginCampaign("", "");
  campaigns_.back().rounds.push_back(round);
}

void TraceRecorder::EndCampaign(bool converged) {
  if (!open_) return;
  campaigns_.back().converged = converged;
  open_ = false;
}

Status ValidateTrace(const CampaignTrace& trace) {
  const std::string who = StrFormat(
      "trace %s/%s", trace.design.c_str(), trace.label.c_str());
  if (trace.rounds.empty()) {
    return Status::FailedPrecondition(who + ": no rounds");
  }
  const CampaignRound* prev = nullptr;
  for (const CampaignRound& round : trace.rounds) {
    const std::string at =
        StrFormat("%s round %llu", who.c_str(),
                  static_cast<unsigned long long>(round.round));
    if (prev != nullptr && round.round <= prev->round) {
      return Status::FailedPrecondition(at + ": round index not increasing");
    }
    if (prev != nullptr && round.cost_seconds < prev->cost_seconds) {
      return Status::FailedPrecondition(
          at + ": cumulative cost_seconds decreased");
    }
    if (prev != nullptr && (round.units < prev->units ||
                            round.triples_annotated < prev->triples_annotated ||
                            round.entities_identified <
                                prev->entities_identified)) {
      return Status::FailedPrecondition(
          at + ": cumulative units/annotations decreased");
    }
    if (!(round.ci_lower <= round.estimate + 1e-12 &&
          round.estimate <= round.ci_upper + 1e-12)) {
      return Status::FailedPrecondition(
          at + StrFormat(": CI [%g, %g] does not bracket estimate %g",
                         round.ci_lower, round.ci_upper, round.estimate));
    }
    if (round.moe < 0.0) {
      return Status::FailedPrecondition(at + ": negative margin of error");
    }
    prev = &round;
  }
  return Status::OK();
}

namespace {

constexpr const char* kSchema = "kgacc-trace-v1";

Result<CampaignRound> ParseRound(const JsonValue& value) {
  CampaignRound round;
  KGACC_ASSIGN_OR_RETURN(round.round, value.GetCount("round"));
  KGACC_ASSIGN_OR_RETURN(round.cost_seconds, value.GetNumber("cost_seconds"));
  KGACC_ASSIGN_OR_RETURN(round.units, value.GetCount("units"));
  KGACC_ASSIGN_OR_RETURN(round.estimate, value.GetNumber("estimate"));
  KGACC_ASSIGN_OR_RETURN(round.ci_lower, value.GetNumber("ci_lower"));
  KGACC_ASSIGN_OR_RETURN(round.ci_upper, value.GetNumber("ci_upper"));
  KGACC_ASSIGN_OR_RETURN(round.moe, value.GetNumber("moe"));
  KGACC_ASSIGN_OR_RETURN(round.triples_annotated,
                         value.GetCount("triples_annotated"));
  KGACC_ASSIGN_OR_RETURN(round.entities_identified,
                         value.GetCount("entities_identified"));
  return round;
}

}  // namespace

std::string RoundToJson(const CampaignRound& round) {
  return StrFormat(
      "{\"round\": %llu, \"cost_seconds\": %.17g, \"units\": %llu, "
      "\"estimate\": %.17g, \"ci_lower\": %.17g, \"ci_upper\": %.17g, "
      "\"moe\": %.17g, \"triples_annotated\": %llu, "
      "\"entities_identified\": %llu}",
      static_cast<unsigned long long>(round.round), round.cost_seconds,
      static_cast<unsigned long long>(round.units), round.estimate,
      round.ci_lower, round.ci_upper, round.moe,
      static_cast<unsigned long long>(round.triples_annotated),
      static_cast<unsigned long long>(round.entities_identified));
}

Status WriteTraceJson(
    const std::string& path, const std::vector<CampaignTrace>& campaigns,
    const std::vector<std::pair<std::string, double>>& metadata) {
  std::string out;
  out += StrFormat("{\"schema\": \"%s\",\n \"metadata\": {", kSchema);
  for (size_t i = 0; i < metadata.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("\"%s\": %.17g", JsonEscape(metadata[i].first).c_str(),
                     metadata[i].second);
  }
  out += "},\n \"campaigns\": [";
  for (size_t c = 0; c < campaigns.size(); ++c) {
    const CampaignTrace& trace = campaigns[c];
    if (c > 0) out += ",";
    out += StrFormat("\n  {\"design\": \"%s\", \"label\": \"%s\", "
                     "\"converged\": %s,\n   \"rounds\": [",
                     JsonEscape(trace.design).c_str(),
                     JsonEscape(trace.label).c_str(),
                     trace.converged ? "true" : "false");
    for (size_t r = 0; r < trace.rounds.size(); ++r) {
      if (r > 0) out += ",\n    ";
      out += RoundToJson(trace.rounds[r]);
    }
    out += "]}";
  }
  out += "\n]}\n";

  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    return Status::IOError(StrFormat("cannot open '%s' for writing",
                                     path.c_str()));
  }
  file << out;
  file.flush();
  if (!file) {
    return Status::IOError(StrFormat("write to '%s' failed", path.c_str()));
  }
  return Status::OK();
}

Result<std::vector<CampaignTrace>> ReadTraceJson(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::IOError(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  KGACC_ASSIGN_OR_RETURN(const JsonValue document, JsonValue::Parse(text));
  return ParseTraceJson(document, path);
}

Result<std::vector<CampaignTrace>> ParseTraceJson(const JsonValue& document,
                                                  const std::string& context) {
  KGACC_ASSIGN_OR_RETURN(const std::string schema,
                         document.GetString("schema"));
  if (schema != kSchema) {
    return Status::InvalidArgument(
        StrFormat("'%s': unsupported schema '%s' (want %s)", context.c_str(),
                  schema.c_str(), kSchema));
  }
  const JsonValue* campaigns = document.Find("campaigns");
  if (campaigns == nullptr || !campaigns->is_array()) {
    return Status::InvalidArgument(
        StrFormat("'%s': missing campaigns array", context.c_str()));
  }
  std::vector<CampaignTrace> traces;
  traces.reserve(campaigns->AsArray().size());
  for (const JsonValue& entry : campaigns->AsArray()) {
    CampaignTrace trace;
    KGACC_ASSIGN_OR_RETURN(trace.design, entry.GetString("design"));
    KGACC_ASSIGN_OR_RETURN(trace.label, entry.GetString("label"));
    KGACC_ASSIGN_OR_RETURN(trace.converged, entry.GetBool("converged"));
    const JsonValue* rounds = entry.Find("rounds");
    if (rounds == nullptr || !rounds->is_array()) {
      return Status::InvalidArgument(
          StrFormat("'%s': campaign '%s' missing rounds array",
                    context.c_str(), trace.design.c_str()));
    }
    trace.rounds.reserve(rounds->AsArray().size());
    for (const JsonValue& row : rounds->AsArray()) {
      KGACC_ASSIGN_OR_RETURN(const CampaignRound round, ParseRound(row));
      trace.rounds.push_back(round);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

namespace {

constexpr const char* kBenchSchema = "kgacc-bench-v2";

/// "<bench>.<metric>": the bench's name keeps metrics of different
/// artifacts apart in one gate list.
std::string MetricName(const std::string& bench, const std::string& name) {
  return bench + "." + name;
}

bool IsMetricNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-';
}

}  // namespace

BenchArtifact::BenchArtifact(std::string bench) : bench_(std::move(bench)) {
  config_.BeginObject();
  rows_.BeginArray();
}

void BenchArtifact::SetMetric(const std::string& name, double value) {
  metrics_[MetricName(bench_, name)] = value;
}

Status BenchArtifact::Write(const std::string& path) {
  JsonWriter metrics;
  metrics.BeginObject();
  for (const auto& [name, value] : metrics_) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(
          StrFormat("metric '%s' is not finite (%g)", name.c_str(), value));
    }
    metrics.Key(name).Number(value);
  }
  metrics.EndObject();
  config_.EndObject();
  rows_.EndArray();
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  file << "{\"schema\": \"" << kBenchSchema << "\", \"bench\": \""
       << JsonEscape(bench_) << "\",\n \"config\": " << config_.str()
       << ",\n \"metrics\": " << metrics.str()
       << ",\n \"rows\": " << rows_.str() << "}\n";
  file.flush();
  if (!file) {
    return Status::IOError(StrFormat("cannot write '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<BenchSummary> ParseBenchJson(const JsonValue& document,
                                    const std::string& context) {
  KGACC_ASSIGN_OR_RETURN(const std::string schema,
                         document.GetString("schema"));
  if (schema != kBenchSchema) {
    return Status::InvalidArgument(
        StrFormat("'%s': unsupported schema '%s' (want %s)", context.c_str(),
                  schema.c_str(), kBenchSchema));
  }
  BenchSummary summary;
  KGACC_ASSIGN_OR_RETURN(summary.bench, document.GetString("bench"));
  const JsonValue* config = document.Find("config");
  const JsonValue* metrics = document.Find("metrics");
  const JsonValue* rows = document.Find("rows");
  if (summary.bench.empty() || config == nullptr || !config->is_object() ||
      metrics == nullptr || !metrics->is_object() || rows == nullptr ||
      !rows->is_array()) {
    return Status::InvalidArgument(StrFormat(
        "'%s': a %s document needs a bench name, a config object, a "
        "metrics object and a rows array",
        context.c_str(), kBenchSchema));
  }
  const std::string prefix = MetricName(summary.bench, "");
  for (const auto& [name, value] : metrics->AsObject()) {
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      return Status::InvalidArgument(
          StrFormat("'%s': metric '%s' is not named '%s<metric>'",
                    context.c_str(), name.c_str(), prefix.c_str()));
    }
    if (!value.is_number()) {
      return Status::InvalidArgument(StrFormat(
          "'%s': metric '%s' is not a number", context.c_str(), name.c_str()));
    }
    summary.metrics[name] = value.AsNumber();
  }
  summary.rows = rows->AsArray().size();
  return summary;
}

bool Gate::Admits(double value) const {
  switch (op) {
    case Op::kLess: return value < threshold;
    case Op::kLessEqual: return value <= threshold;
    case Op::kGreater: return value > threshold;
    case Op::kGreaterEqual: return value >= threshold;
  }
  return false;
}

std::string Gate::ToString() const {
  static constexpr const char* kSpelling[] = {"<", "<=", ">", ">="};
  return StrFormat("%s%s%g", metric.c_str(),
                   kSpelling[static_cast<int>(op)], threshold);
}

Result<std::vector<Gate>> ParseGates(std::string_view spec) {
  std::vector<Gate> gates;
  for (const std::string_view piece : SplitString(spec, ',')) {
    const std::string_view entry = StripWhitespace(piece);
    const size_t at = entry.find_first_of("<>");
    if (at == std::string_view::npos) {
      return Status::InvalidArgument(StrFormat(
          "gate '%.*s' has no operator (<, <=, >, >=)",
          static_cast<int>(entry.size()), entry.data()));
    }
    Gate gate;
    gate.metric = std::string(StripWhitespace(entry.substr(0, at)));
    if (gate.metric.empty() ||
        !std::all_of(gate.metric.begin(), gate.metric.end(),
                     IsMetricNameChar)) {
      return Status::InvalidArgument(StrFormat(
          "gate '%.*s' needs a metric name of letters, digits, '_', '.' "
          "and '-' before its operator",
          static_cast<int>(entry.size()), entry.data()));
    }
    const bool inclusive = at + 1 < entry.size() && entry[at + 1] == '=';
    if (entry[at] == '<') {
      gate.op = inclusive ? Gate::Op::kLessEqual : Gate::Op::kLess;
    } else {
      gate.op = inclusive ? Gate::Op::kGreaterEqual : Gate::Op::kGreater;
    }
    const std::string_view value = entry.substr(at + (inclusive ? 2 : 1));
    if (!ParseDouble(value, &gate.threshold)) {
      return Status::InvalidArgument(StrFormat(
          "gate '%.*s': threshold '%.*s' is not a finite number",
          static_cast<int>(entry.size()), entry.data(),
          static_cast<int>(value.size()), value.data()));
    }
    gates.push_back(std::move(gate));
  }
  return gates;
}

Status CheckGates(const std::vector<Gate>& gates,
                  const MetricObservations& observed) {
  std::vector<std::string> failures;
  for (const Gate& gate : gates) {
    const auto it = observed.find(gate.metric);
    if (it == observed.end() || it->second.empty()) {
      failures.push_back(StrFormat(
          "gate '%s': no input carries metric '%s', so the gate would pass "
          "vacuously; pass an artifact that reports it or drop the gate",
          gate.ToString().c_str(), gate.metric.c_str()));
      continue;
    }
    for (const double value : it->second) {
      if (!gate.Admits(value)) {
        failures.push_back(StrFormat("gate '%s' failed: %s = %.17g",
                                     gate.ToString().c_str(),
                                     gate.metric.c_str(), value));
      }
    }
  }
  if (failures.empty()) return Status::OK();
  std::string message = failures.front();
  for (size_t i = 1; i < failures.size(); ++i) message += "\n" + failures[i];
  return Status::FailedPrecondition(message);
}

}  // namespace kgacc
