#pragma once

#include <cstdint>
#include <string>

#include "core/evaluation.h"
#include "labels/annotator_spec.h"
#include "util/json.h"
#include "util/result.h"

namespace kgacc::serve {

/// The wire protocol version tag. One `kgacc-serve-v1` exchange is a single
/// line of JSON in each direction (requests: `{"op": ..., ...}`; responses:
/// `{"ok": true, ...}` or `{"ok": false, "error": ...}`), except
/// `stream-trace`, whose response is a header line, one `kgacc-trace-v1`
/// round object per line, and an `{"end": true}` terminator.
inline constexpr const char* kServeProtocol = "kgacc-serve-v1";

/// Everything that re-creates a (possibly suspended) campaign session:
/// its configuration and the rounds it completed. Deliberately *not* a
/// dump of sampler/estimator internals: the pipeline is deterministic given
/// (graph, design, options, annotator spec) — seeded samplers, and labels
/// and cost that are pure functions of the annotated set at any thread
/// count — so a resume builds a fresh campaign and replays
/// `rounds_completed` Step()s (ServeSession's constructor), bit-identical
/// to the original for every registry design, at the cost of machine time
/// only. EvaluationOptions' borrowed pointers (telemetry, control) are
/// runtime wiring, not state, and never travel.
struct CampaignSessionState {
  std::string design;           ///< registry design name ("twcs", "rs", ...).
  std::string graph;            ///< graph name in the serve GraphStore.
  uint64_t rounds_completed = 0;  ///< rounds finished before suspension.
  EvaluationOptions options;    ///< value fields only (see above).
  AnnotatorSpec annotator;
};

/// Applies an `options` JSON object to `out` — every EvaluationOptions value
/// field is an optional member ({"moe_target": 0.05, "seed": 7,
/// "srs_ci": "wilson", ...}); absent members keep their values. Checks
/// types only and rejects unknown members, so client typos fail loudly
/// instead of silently running a default campaign; the range rules are
/// CheckEvaluationOptions', applied when the campaign is built.
Status ParseEvaluationOptions(const JsonValue& json, EvaluationOptions* out);

/// Same for an `annotator` object ({"annotators": 3, "noise_rate": 0.1,
/// "annotation_threads": 4, ...}); ranges are CheckAnnotatorSpec's.
Status ParseAnnotatorSpec(const JsonValue& json, AnnotatorSpec* out);

/// Reads the campaign a start-campaign request names: "graph" and "design"
/// (strings; the caller resolves them) and the optional "options" and
/// "annotator" objects, applied over `out`'s values. Other members are the
/// caller's to accept or refuse.
Status ParseCampaign(const JsonValue& json, CampaignSessionState* out);

/// The `campaign_state` object a `suspend` returns and a `resume` takes:
/// {"design", "graph", "rounds", "options": {...}, "annotator": {...}},
/// with every value field of both objects (doubles at %.17g, so a resumed
/// campaign replays bit-identically).
std::string CampaignStateJson(const CampaignSessionState& state);

/// Reads a `campaign_state` object back over `out`'s values: ParseCampaign
/// plus "rounds" (the replay point; default 0). Refuses any other member,
/// and refuses a string — the text blob suspend returned before this
/// object — with an error that names that format.
Status ParseCampaignState(const JsonValue& json, CampaignSessionState* out);

/// Request builders used by the C++ client, bench and tests — one line of
/// JSON per request, matching what the daemon parses.
std::string BuildLoadGraph(const std::string& graph, uint64_t seed);
std::string BuildStartCampaign(const std::string& graph,
                               const std::string& design,
                               const std::string& options_json = "",
                               const std::string& annotator_json = "");
std::string BuildStep(const std::string& session, uint64_t rounds);
std::string BuildQueryEstimate(const std::string& session);
std::string BuildStreamTrace(const std::string& session, uint64_t from = 0);
std::string BuildSuspend(const std::string& session);
std::string BuildResumeSession(const std::string& session);
/// `campaign_state` is the JSON text of the object a suspend returned
/// (CampaignStateJson).
std::string BuildResumeState(const std::string& campaign_state);
std::string BuildStop(const std::string& session);
std::string BuildMetrics();
std::string BuildShutdown();

/// `start-campaign` with `"tenant": true` — admits the campaign to the
/// fleet scheduler instead of the free-stepping session table. `weight`
/// and `quota_seconds` feed the weighted-fair policy and the per-tenant
/// spend cap (0 = none); `id` pins the tenant id (empty = auto).
std::string BuildStartTenantCampaign(const std::string& graph,
                                     const std::string& design,
                                     const std::string& options_json = "",
                                     const std::string& annotator_json = "",
                                     double weight = 1.0,
                                     double quota_seconds = 0.0,
                                     const std::string& id = "");
std::string BuildSetBudget(double budget_seconds);
/// Empty id = status of every tenant plus fleet totals.
std::string BuildTenantStatus(const std::string& tenant = "");

}  // namespace kgacc::serve
