#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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

class JsonValue;  // util/json.h

/// Same, over an already-parsed JSON document (callers that dispatch on the
/// "schema" field can parse once and hand the document over; `context`
/// labels error messages, typically the file path).
Result<std::vector<CampaignTrace>> ParseTraceJson(const JsonValue& document,
                                                  const std::string& context);

/// One explicitly requested artifact gate: the flag that enabled it and the
/// artifact kind (schema name) the gate inspects.
struct GateRequirement {
  std::string flag;  ///< e.g. "min-async-speedup".
  std::string kind;  ///< e.g. "kgacc-async-bench-v1".
};

/// Gate/input coverage check for artifact gating tools (kgacc_trace_check):
/// every active gate must have seen at least one artifact of the kind it
/// inspects. A gate whose kind never appeared in the input would otherwise
/// pass vacuously — the classic CI failure where a renamed artifact silently
/// disarms the gate — so the first uncovered gate is returned as an
/// InvalidArgument naming both the flag and the missing kind.
Status CheckGateCoverage(const std::vector<GateRequirement>& active_gates,
                         const std::vector<std::string>& kinds_seen);

}  // namespace kgacc
