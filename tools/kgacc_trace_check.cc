// kgacc_trace_check — CI gate over the JSON artifacts of kgacc_eval and the
// benches.
//
//   kgacc_trace_check [--baseline DIR] [--tolerance 0.15]
//                     [--gate 'name>=x,name<y'] FILE.json [...]
//
// Four artifact kinds are understood, dispatched on the "schema" field:
//
//  - kgacc-trace-v1 (campaign traces): every file must parse with at least
//    one campaign, and every campaign must pass ValidateTrace (non-empty
//    rounds, strictly increasing round indices, non-decreasing cumulative
//    cost/units/annotations, CI bounds bracketing the estimate). With
//    --baseline DIR, each file is additionally compared against the
//    committed snapshot of the same name in DIR: a campaign whose
//    cost-at-convergence (final-round cumulative cost) exceeds the
//    baseline's by more than --tolerance (default 0.15 = 15%), or which
//    converged in the baseline but no longer does, fails the gate. Files
//    without a baseline snapshot pass with a note (new designs are not
//    regressions).
//
//  - kgacc-metrics-v1 (runtime metrics snapshots from kgacc_eval --metrics):
//    counters/gauges/histograms must be well-formed — finite values,
//    ascending bucket bounds, bucket counts summing to the histogram count,
//    monotone p50 <= p95 <= p99 — and the core engine/annotation metrics
//    must be present with activity recorded.
//
//  - kgacc-bench-v2 (every bench artifact): the envelope must be valid
//    (ParseBenchJson), and its metrics become gate inputs. Each bench checks
//    its own invariants (bit-identical async cells, monotone cost sweeps,
//    size-independent store opens, ...) and exits non-zero when one breaks,
//    so the artifact carries measurements, not verdicts.
//
//  - Chrome trace_event documents (kgacc_eval --chrome-trace), recognized by
//    their "traceEvents" member: events must be well-formed complete/counter/
//    metadata events with non-negative timestamps and at least one span.
//    The trace exposes chrome.span_threads (distinct threads carrying
//    spans) as a gate input.
//
// --gate 'a>=x,b<y' (operators <, <=, >, >=) checks each named metric in
// every input that carries it. A gate whose metric no input carries fails
// instead of passing vacuously (the failure mode where a renamed artifact
// silently disarms CI), and so does --baseline without a kgacc-trace-v1
// input.
//
// Exits non-zero with a diagnostic on stderr on any failure, so a
// regression that silences telemetry, breaks cost accounting, or slows a
// gated path fails the build instead of shipping.

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/telemetry.h"
#include "util/flags.h"
#include "util/json.h"

namespace kgacc {
namespace {

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The cumulative annotation cost when the campaign stopped.
double CostAtEnd(const CampaignTrace& trace) {
  return trace.rounds.empty() ? 0.0 : trace.rounds.back().cost_seconds;
}

/// Compares a trace file against its committed baseline snapshot. Campaigns
/// are matched positionally (the bench-smoke commands are deterministic, so
/// campaign order is part of the artifact contract).
bool CheckAgainstBaseline(const std::string& path,
                          const std::vector<CampaignTrace>& current,
                          const std::string& baseline_dir, double tolerance) {
  const std::string baseline_path = baseline_dir + "/" + Basename(path);
  const Result<std::vector<CampaignTrace>> baseline =
      ReadTraceJson(baseline_path);
  if (!baseline.ok()) {
    std::printf("%s: no baseline snapshot (%s) — skipping regression gate\n",
                path.c_str(), baseline_path.c_str());
    return true;
  }
  if (baseline->size() != current.size()) {
    std::fprintf(stderr,
                 "%s: campaign count changed vs baseline (%zu -> %zu); "
                 "regenerate bench/baselines if intentional\n",
                 path.c_str(), baseline->size(), current.size());
    return false;
  }
  bool ok = true;
  for (size_t i = 0; i < current.size(); ++i) {
    const CampaignTrace& now = current[i];
    const CampaignTrace& then = (*baseline)[i];
    if (then.converged && !now.converged) {
      std::fprintf(stderr, "%s: campaign %zu (%s/%s) no longer converges\n",
                   path.c_str(), i, now.design.c_str(), now.label.c_str());
      ok = false;
      continue;
    }
    const double before = CostAtEnd(then);
    const double after = CostAtEnd(now);
    if (before > 0.0 && after > before * (1.0 + tolerance)) {
      std::fprintf(stderr,
                   "%s: campaign %zu (%s/%s) cost-at-convergence regressed "
                   "%.0fs -> %.0fs (+%.1f%%, tolerance %.0f%%)\n",
                   path.c_str(), i, now.design.c_str(), now.label.c_str(),
                   before, after, (after / before - 1.0) * 100.0,
                   tolerance * 100.0);
      ok = false;
    }
  }
  if (ok) {
    std::printf("%s: within %.0f%% of baseline (%zu campaigns)\n",
                path.c_str(), tolerance * 100.0, current.size());
  }
  return ok;
}

/// Validates one kgacc-metrics-v1 histogram entry.
bool CheckHistogramEntry(const std::string& path, const JsonValue& entry) {
  const Result<std::string> name = entry.GetString("name");
  const Result<double> count = entry.GetNumber("count");
  const Result<double> sum = entry.GetNumber("sum_seconds");
  const Result<double> p50 = entry.GetNumber("p50_seconds");
  const Result<double> p95 = entry.GetNumber("p95_seconds");
  const Result<double> p99 = entry.GetNumber("p99_seconds");
  const Result<double> min = entry.GetNumber("min_seconds");
  const Result<double> max = entry.GetNumber("max_seconds");
  if (!name.ok() || !count.ok() || !sum.ok() || !p50.ok() || !p95.ok() ||
      !p99.ok() || !min.ok() || !max.ok()) {
    std::fprintf(stderr, "%s: malformed histogram entry\n", path.c_str());
    return false;
  }
  if (*count < 0.0 || *sum < 0.0 || *min < 0.0 || *min > *max ||
      *min > *p50 || *p50 > *p95 || *p95 > *p99 || *p99 > *max) {
    std::fprintf(stderr,
                 "%s: histogram '%s' has inconsistent summary stats\n",
                 path.c_str(), name->c_str());
    return false;
  }
  const JsonValue* buckets = entry.Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    std::fprintf(stderr, "%s: histogram '%s' missing buckets\n", path.c_str(),
                 name->c_str());
    return false;
  }
  double bucket_total = 0.0;
  double prev_le = -1.0;
  for (const JsonValue& bucket : buckets->AsArray()) {
    const Result<double> le = bucket.GetNumber("le_seconds");
    const Result<double> bucket_count = bucket.GetNumber("count");
    if (!le.ok() || !bucket_count.ok() || *bucket_count <= 0.0 ||
        *le <= prev_le) {
      std::fprintf(stderr,
                   "%s: histogram '%s' has malformed or non-ascending "
                   "buckets\n",
                   path.c_str(), name->c_str());
      return false;
    }
    prev_le = *le;
    bucket_total += *bucket_count;
  }
  if (bucket_total != *count) {
    std::fprintf(stderr,
                 "%s: histogram '%s' bucket counts sum to %.0f, count says "
                 "%.0f\n",
                 path.c_str(), name->c_str(), bucket_total, *count);
    return false;
  }
  return true;
}

/// Validates a kgacc-metrics-v1 snapshot artifact.
bool CheckMetrics(const std::string& path, const JsonValue& doc) {
  const JsonValue* counters = doc.Find("counters");
  const JsonValue* gauges = doc.Find("gauges");
  const JsonValue* histograms = doc.Find("histograms");
  if (counters == nullptr || !counters->is_array() || gauges == nullptr ||
      !gauges->is_array() || histograms == nullptr ||
      !histograms->is_array()) {
    std::fprintf(stderr,
                 "%s: missing counters/gauges/histograms arrays\n",
                 path.c_str());
    return false;
  }
  bool ok = true;
  uint64_t active_counters = 0;
  bool saw_rounds = false;
  for (const JsonValue& entry : counters->AsArray()) {
    const Result<std::string> name = entry.GetString("name");
    const Result<double> value = entry.GetNumber("value");
    if (!name.ok() || !value.ok() || *value < 0.0) {
      std::fprintf(stderr, "%s: malformed counter entry\n", path.c_str());
      ok = false;
      continue;
    }
    if (*value > 0.0) ++active_counters;
    // Engine-loop designs count rounds; rs/ss run their own incremental
    // campaigns instead, which always annotate through the batch path.
    // Either counter proves collection was actually enabled.
    if ((*name == "engine.rounds" || *name == "annotation.cache.lookups") &&
        *value > 0.0) {
      saw_rounds = true;
    }
  }
  for (const JsonValue& entry : histograms->AsArray()) {
    if (!CheckHistogramEntry(path, entry)) ok = false;
  }
  // A metrics artifact from an actual evaluation must show campaign
  // activity; an all-zero snapshot means collection was never enabled.
  if (!saw_rounds) {
    std::fprintf(stderr,
                 "%s: no engine.rounds or annotation.cache.lookups activity "
                 "recorded — was metrics collection enabled?\n",
                 path.c_str());
    ok = false;
  }
  if (ok) {
    std::printf("%s: OK (%zu counters [%llu active], %zu histograms)\n",
                path.c_str(), counters->AsArray().size(),
                static_cast<unsigned long long>(active_counters),
                histograms->AsArray().size());
  }
  return ok;
}

/// Validates a Chrome trace_event document (from kgacc_eval --chrome-trace)
/// and records how many threads carry spans as a gate input.
bool CheckChromeTrace(const std::string& path, const JsonValue& doc,
                      MetricObservations* observed) {
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: missing traceEvents array\n", path.c_str());
    return false;
  }
  uint64_t spans = 0;
  std::set<int64_t> span_threads;
  for (const JsonValue& event : events->AsArray()) {
    const Result<std::string> ph = event.GetString("ph");
    const Result<double> tid = event.GetNumber("tid");
    if (!ph.ok() || !tid.ok() || event.Find("pid") == nullptr) {
      std::fprintf(stderr, "%s: malformed trace event\n", path.c_str());
      return false;
    }
    if (*ph == "M") continue;
    const Result<double> ts = event.GetNumber("ts");
    if (!ts.ok() || *ts < 0.0) {
      std::fprintf(stderr, "%s: event with missing/negative ts\n",
                   path.c_str());
      return false;
    }
    if (*ph == "X") {
      const Result<double> dur = event.GetNumber("dur");
      if (!dur.ok() || *dur < 0.0) {
        std::fprintf(stderr, "%s: complete event with bad dur\n",
                     path.c_str());
        return false;
      }
      ++spans;
      span_threads.insert(static_cast<int64_t>(*tid));
    }
  }
  if (spans == 0) {
    std::fprintf(stderr, "%s: trace has no span events\n", path.c_str());
    return false;
  }
  (*observed)["chrome.span_threads"].push_back(
      static_cast<double>(span_threads.size()));
  std::printf("%s: OK (%llu spans across %zu threads)\n", path.c_str(),
              static_cast<unsigned long long>(spans), span_threads.size());
  return true;
}

/// Validates a kgacc-bench-v2 envelope and records its metrics as gate
/// inputs.
bool CheckBench(const std::string& path, const JsonValue& doc,
                MetricObservations* observed) {
  const Result<BenchSummary> bench = ParseBenchJson(doc, path);
  if (!bench.ok()) {
    std::fprintf(stderr, "%s\n", bench.status().message().c_str());
    return false;
  }
  std::printf("%s: OK (bench %s, %zu metrics, %zu rows)\n", path.c_str(),
              bench->bench.c_str(), bench->metrics.size(), bench->rows);
  for (const auto& [name, value] : bench->metrics) {
    std::printf("  %-52s %.6g\n", name.c_str(), value);
    (*observed)[name].push_back(value);
  }
  return true;
}

/// Validates a kgacc-trace-v1 document, then compares it against its
/// baseline snapshot when `baseline_dir` is set.
bool CheckTraces(const std::string& path, const JsonValue& doc,
                 const std::string& baseline_dir, double tolerance) {
  // Everything unrecognized goes through the trace parser, whose
  // diagnostics cover misschema'd files too.
  const Result<std::vector<CampaignTrace>> traces = ParseTraceJson(doc, path);
  if (!traces.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 traces.status().ToString().c_str());
    return false;
  }
  if (traces->empty()) {
    std::fprintf(stderr, "%s: no campaigns in trace\n", path.c_str());
    return false;
  }
  uint64_t rounds = 0;
  bool ok = true;
  for (const CampaignTrace& trace : *traces) {
    const Status valid = ValidateTrace(trace);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), valid.ToString().c_str());
      ok = false;
    }
    rounds += trace.rounds.size();
  }
  if (ok && !baseline_dir.empty()) {
    ok = CheckAgainstBaseline(path, *traces, baseline_dir, tolerance);
  }
  if (ok) {
    std::printf("%s: OK (%llu campaigns, %llu rounds)\n", path.c_str(),
                static_cast<unsigned long long>(traces->size()),
                static_cast<unsigned long long>(rounds));
  }
  return ok;
}

int Run(const FlagParser& flags) {
  const std::string baseline_dir = flags.GetString("baseline", "");
  const Result<double> tolerance = flags.GetDouble("tolerance", 0.15);
  if (!tolerance.ok()) {
    std::fprintf(stderr, "error: %s\n", tolerance.status().message().c_str());
    return 1;
  }
  const Result<std::vector<Gate>> gates =
      flags.Has("gate") ? ParseGates(flags.GetString("gate", ""))
                        : Result<std::vector<Gate>>(std::vector<Gate>{});
  if (!gates.ok()) {
    std::fprintf(stderr, "error: --gate: %s\n",
                 gates.status().message().c_str());
    return 1;
  }

  MetricObservations observed;
  bool saw_trace = false;
  int failures = 0;
  for (const std::string& path : flags.positional()) {
    // Parse each file once, dispatch on its "schema" field.
    std::ifstream file(path);
    std::ostringstream buffer;
    if (file) buffer << file.rdbuf();
    const Result<JsonValue> doc =
        file ? JsonValue::Parse(buffer.str())
             : Result<JsonValue>(
                   Status::IOError("cannot open '" + path + "'"));
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      ++failures;
      continue;
    }
    const std::string schema = doc->GetString("schema").ValueOr("");
    bool ok = false;
    if (schema == "kgacc-bench-v2") {
      ok = CheckBench(path, *doc, &observed);
    } else if (schema == "kgacc-metrics-v1") {
      ok = CheckMetrics(path, *doc);
    } else if (doc->Find("traceEvents") != nullptr) {
      ok = CheckChromeTrace(path, *doc, &observed);
    } else {
      saw_trace = saw_trace || schema == "kgacc-trace-v1";
      ok = CheckTraces(path, *doc, baseline_dir, *tolerance);
    }
    if (!ok) ++failures;
  }
  if (!baseline_dir.empty() && !saw_trace) {
    std::fprintf(stderr,
                 "--baseline compares kgacc-trace-v1 files, but no input has "
                 "that schema; the comparison would pass vacuously\n");
    ++failures;
  }
  const Status gated = CheckGates(*gates, observed);
  if (!gated.ok()) {
    std::fprintf(stderr, "%s\n", gated.message().c_str());
    ++failures;
  } else if (!gates->empty()) {
    std::printf("%zu gates passed\n", gates->size());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kgacc

int main(int argc, char** argv) {
  using namespace kgacc;
  Result<FlagParser> parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const FlagParser& flags = *parsed;
  const Status valid =
      flags.Validate({"baseline", "tolerance", "gate", "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 1;
  }
  if (flags.GetBool("help", false) || flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: kgacc_trace_check [--baseline DIR] "
                 "[--tolerance 0.15] [--gate 'name>=x,name<y,...'] "
                 "FILE.json [...]\n");
    return flags.GetBool("help", false) ? 0 : 1;
  }
  return Run(flags);
}
