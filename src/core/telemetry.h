#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/result.h"
#include "util/status.h"

namespace kgacc {

/// One row of a campaign's estimate trajectory: the state of the evaluation
/// after one sample→annotate→estimate round. All cost/effort fields are
/// cumulative *within the campaign* (they start at zero each campaign), so a
/// valid trace is non-decreasing in cost, units and annotations — the
/// property the CI bench-smoke gate checks.
struct CampaignRound {
  uint64_t round = 0;              ///< 1-based round index within the campaign.
  double cost_seconds = 0.0;       ///< cumulative simulated annotation cost.
  uint64_t units = 0;              ///< sampling units behind the estimate.
  double estimate = 0.0;           ///< point estimate of accuracy.
  double ci_lower = 0.0;           ///< CI bounds: Wilson for SRS+Wilson,
  double ci_upper = 1.0;           ///<   unclamped Wald otherwise (early
                                   ///<   cluster-design rounds may overshoot
                                   ///<   [0, 1]; bounds always bracket).
  double moe = 1.0;                ///< margin of error the stopping rule saw.
  uint64_t triples_annotated = 0;  ///< cumulative triples annotated.
  uint64_t entities_identified = 0;  ///< cumulative clusters identified.
};

/// The full per-round trajectory of one evaluation campaign (one engine Run,
/// or one Initialize/ApplyUpdate step of an incremental evaluator).
struct CampaignTrace {
  std::string design;  ///< design label ("TWCS", "RS", ...).
  std::string label;   ///< campaign label ("", "initialize", "update-3", ...).
  bool converged = false;
  std::vector<CampaignRound> rounds;
};

/// Receiver of campaign telemetry. The engine and the incremental evaluators
/// report through this interface instead of printing; sinks turn rounds into
/// in-memory traces (TraceRecorder), JSON artifacts, dashboards, ...
///
/// Contract: BeginCampaign, then OnRound once per round (round indices
/// strictly increasing from 1), then EndCampaign. Emission must never
/// influence the evaluation itself — a campaign run with and without a sink
/// produces bit-identical results.
///
/// A campaign stopped before its own stopping decision leaves its telemetry
/// open (no EndCampaign). Resuming it rebuilds the campaign from scratch,
/// which begins a new telemetry campaign and re-emits rounds 1..k while
/// replaying — so a resumed serve session feeds a fresh sink.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  virtual void BeginCampaign(const std::string& design,
                             const std::string& label) {
    (void)design;
    (void)label;
  }
  virtual void OnRound(const CampaignRound& round) { (void)round; }
  virtual void EndCampaign(bool converged) { (void)converged; }
};

/// TelemetrySink that records every campaign as a CampaignTrace, in order.
/// Not thread-safe: one recorder per evaluation thread.
class TraceRecorder : public TelemetrySink {
 public:
  void BeginCampaign(const std::string& design,
                     const std::string& label) override;
  void OnRound(const CampaignRound& round) override;
  void EndCampaign(bool converged) override;

  /// Prefix prepended to the labels of subsequently begun campaigns, so
  /// callers multiplexing several scenarios into one recorder (benches) can
  /// tell the traces apart ("update130K/initialize", ...).
  void SetLabelPrefix(std::string prefix) { label_prefix_ = std::move(prefix); }

  const std::vector<CampaignTrace>& campaigns() const { return campaigns_; }
  bool empty() const { return campaigns_.empty(); }

 private:
  std::string label_prefix_;
  std::vector<CampaignTrace> campaigns_;
  bool open_ = false;  ///< a BeginCampaign without matching EndCampaign.
};

/// One round as a single-line JSON object — the row format of
/// WriteTraceJson's "rounds" arrays (%.17g doubles, bit-exact round-trip).
/// Shared with the serve `stream-trace` op, which streams these rows
/// verbatim so streamed and file traces byte-compare equal.
std::string RoundToJson(const CampaignRound& round);

/// Structural validity of one trace: at least one round, strictly increasing
/// round indices, non-decreasing cumulative cost/units/annotations, CI
/// bounds bracketing the estimate. This is the invariant the CI bench-smoke
/// step gates on.
Status ValidateTrace(const CampaignTrace& trace);

/// Writes campaigns (plus optional scalar metadata, e.g. ground truth per
/// update batch) as a `kgacc-trace-v1` JSON document:
///
///   {"schema": "kgacc-trace-v1",
///    "metadata": {"truth": 0.9, ...},
///    "campaigns": [
///      {"design": "RS", "label": "initialize", "converged": true,
///       "rounds": [{"round": 1, "cost_seconds": 123.0, "units": 30,
///                   "estimate": 0.9, "ci_lower": 0.86, "ci_upper": 0.94,
///                   "moe": 0.04, "triples_annotated": 150,
///                   "entities_identified": 30}, ...]}, ...]}
///
/// Doubles are written with %.17g, so ReadTraceJson round-trips bit-exactly.
Status WriteTraceJson(
    const std::string& path, const std::vector<CampaignTrace>& campaigns,
    const std::vector<std::pair<std::string, double>>& metadata = {});

/// Parses a kgacc-trace-v1 document back into traces. Validates the schema
/// marker and field presence, not the trajectory invariants — run
/// ValidateTrace on each returned trace for those.
Result<std::vector<CampaignTrace>> ReadTraceJson(const std::string& path);

/// Same, over an already-parsed JSON document (callers that dispatch on the
/// "schema" field can parse once and hand the document over; `context`
/// labels error messages, typically the file path).
Result<std::vector<CampaignTrace>> ParseTraceJson(const JsonValue& document,
                                                  const std::string& context);

/// Builder for a `kgacc-bench-v2` artifact, the one shape every bench
/// writes:
///
///   {"schema": "kgacc-bench-v2", "bench": "kgstore",
///    "config": {"seed": 20190923, ...},
///    "metrics": {"kgstore.max_open_ms": 0.015, ...},
///    "rows": [{"triples": 1000000, "open_ms": 0.012, ...}, ...]}
///
/// `metrics` holds every scalar a `kgacc_trace_check --gate` can read, each
/// finite and named "<bench>.<metric>"; `config` records the run's
/// parameters and `rows` is the free-form table the plotters read.
class BenchArtifact {
 public:
  explicit BenchArtifact(std::string bench);

  /// Writer positioned inside the "config" object: add Key(...) + value.
  JsonWriter& config() { return config_; }
  /// Writer positioned inside the "rows" array: add one value per row.
  JsonWriter& rows() { return rows_; }
  /// Sets metric "<bench>.<name>".
  void SetMetric(const std::string& name, double value);

  /// Writes the document; call once, after the last row. Fails on a
  /// non-finite metric, which JSON cannot carry.
  Status Write(const std::string& path);

 private:
  std::string bench_;
  JsonWriter config_;
  JsonWriter rows_;
  std::map<std::string, double> metrics_;
};

/// The gate-readable part of a parsed `kgacc-bench-v2` document.
struct BenchSummary {
  std::string bench;
  std::map<std::string, double> metrics;
  size_t rows = 0;
};

/// Checks the `kgacc-bench-v2` envelope — schema marker, a non-empty bench
/// name, a config object, a rows array, and metrics that are all numbers
/// named "<bench>.<metric>" — and returns its metrics. `context` labels
/// error messages, typically the file path.
Result<BenchSummary> ParseBenchJson(const JsonValue& document,
                                    const std::string& context);

/// One threshold on a named metric, spelled "name<x", "name<=x", "name>x"
/// or "name>=x" (kgacc_trace_check --gate).
struct Gate {
  enum class Op { kLess, kLessEqual, kGreater, kGreaterEqual };

  std::string metric;
  Op op = Op::kLessEqual;
  double threshold = 0.0;

  bool Admits(double value) const;
  std::string ToString() const;
};

/// Parses a comma-separated gate list, "a>=3,b<=0.5" (a list, because a
/// repeated flag keeps only its last value). Rejects an empty entry, a
/// missing operator, an empty or malformed metric name and a threshold that
/// is not a finite number.
Result<std::vector<Gate>> ParseGates(std::string_view spec);

/// Every value each metric took, one per input that carried it.
using MetricObservations = std::map<std::string, std::vector<double>>;

/// Checks every gate against every observed value of its metric. A gate
/// whose metric no input carries fails instead of passing vacuously — the
/// CI failure where a renamed artifact or metric silently disarms a gate.
/// The error names each failing gate, one per line; with no gates, any
/// input passes.
Status CheckGates(const std::vector<Gate>& gates,
                  const MetricObservations& observed);

}  // namespace kgacc
