#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/graph_store.h"
#include "serve/serve_session.h"
#include "util/json.h"

namespace kgacc::serve {

class CampaignScheduler;

/// The daemon's brain: parses one `kgacc-serve-v1` request line, executes
/// the op against the graph store / session table, and renders the response
/// line(s). Transport-agnostic — the TCP server and the in-process tests
/// drive the same entry point.
///
/// Thread-safe: concurrent HandleLine calls (one per connection handler)
/// share the session table behind a mutex, but long-running work (building
/// a campaign, stepping it) runs outside it on the handler's own thread, so
/// one session stepping never blocks requests to others. Every op rejects
/// top-level keys it does not accept.
/// Each request runs under a ScopedSpan and lands in a per-op latency
/// histogram (`serve.request.<op>_seconds`).
class SessionManager {
 public:
  struct Response {
    std::vector<std::string> lines;  ///< >= 1 line; multi-line: stream-trace.
    bool shutdown = false;           ///< the op asked the server to exit.
  };

  /// `graphs` is borrowed and must outlive the manager.
  explicit SessionManager(GraphStore* graphs);

  /// Daemon-wide annotator defaults (e.g. from kgacc_serve's
  /// --async-annotator flags). A start-campaign request's "annotator"
  /// object overrides them field by field. Call before serving begins —
  /// not synchronized against in-flight HandleLine calls.
  void SetDefaultAnnotator(const AnnotatorSpec& spec) {
    default_annotator_ = spec;
  }

  /// Attaches the fleet scheduler (borrowed; must outlive the manager).
  /// Enables the multi-tenant surface: `start-campaign` with
  /// `"tenant": true` admits the campaign to the scheduler instead of the
  /// free-stepping session table, and `set-budget` / `tenant-status`
  /// become available. Call before serving begins — not synchronized
  /// against in-flight HandleLine calls.
  void AttachScheduler(CampaignScheduler* scheduler) {
    scheduler_ = scheduler;
  }

  Response HandleLine(const std::string& line);

  /// Stops every running session (server shutdown).
  void StopAll();

  GraphStore* graphs() { return graphs_; }

 private:
  std::shared_ptr<ServeSession> FindSession(const std::string& id);
  /// FindSession, falling back to the scheduler's tenant sessions (resuming
  /// an evicted tenant if needed) — the read path for query-estimate and
  /// stream-trace. Step/suspend stay rejected for tenants: the scheduler
  /// owns their stepping.
  std::shared_ptr<ServeSession> FindAnySession(const std::string& id);
  bool IsTenant(const std::string& id) const;

  Response StartTenantCampaign(const JsonValue& request,
                               const CampaignSessionState& campaign);
  /// Builds and publishes a session of `campaign` under `id` (a fresh id
  /// when empty), replaying its completed rounds first: a start-campaign
  /// is a resume from round 0.
  Response StartSession(CampaignSessionState campaign, std::string id);
  Response LoadGraph(const JsonValue& request);
  Response StartCampaign(const JsonValue& request);
  Response Step(const JsonValue& request);
  Response QueryEstimate(const JsonValue& request);
  Response StreamTrace(const JsonValue& request);
  Response Suspend(const JsonValue& request);
  Response Resume(const JsonValue& request);
  Response Stop(const JsonValue& request);
  Response SetBudgetOp(const JsonValue& request);
  Response TenantStatusOp(const JsonValue& request);
  Response MetricsOp(const JsonValue& request);
  Response ShutdownOp(const JsonValue& request);

  GraphStore* graphs_;
  AnnotatorSpec default_annotator_;
  CampaignScheduler* scheduler_ = nullptr;
  std::mutex mutex_;  ///< guards sessions_ / next_id_.
  uint64_t next_id_ = 1;
  std::map<std::string, std::shared_ptr<ServeSession>> sessions_;
};

}  // namespace kgacc::serve
