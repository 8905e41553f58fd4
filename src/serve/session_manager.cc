#include "serve/session_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/design_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "util/string_util.h"

namespace kgacc::serve {

namespace {

/// Per-request-type latency histograms plus request/error counters. Resolved
/// once; the registry keeps the pointers valid for the process lifetime.
struct ServeMetrics {
  obs::Histogram* load_graph = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.load_graph_seconds");
  obs::Histogram* start_campaign = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.start_campaign_seconds");
  obs::Histogram* step = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.step_seconds");
  obs::Histogram* query_estimate = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.query_estimate_seconds");
  obs::Histogram* stream_trace = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.stream_trace_seconds");
  obs::Histogram* suspend = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.suspend_seconds");
  obs::Histogram* resume = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.resume_seconds");
  obs::Histogram* stop = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.stop_seconds");
  obs::Histogram* set_budget = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.set_budget_seconds");
  obs::Histogram* tenant_status = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.tenant_status_seconds");
  obs::Histogram* metrics = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.metrics_seconds");
  obs::Histogram* shutdown = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.shutdown_seconds");
  obs::Counter* requests =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  obs::Counter* errors =
      obs::MetricsRegistry::Global().GetCounter("serve.request_errors");
};

ServeMetrics& Metrics() {
  static ServeMetrics metrics;
  return metrics;
}

SessionManager::Response ErrorResponse(const Status& status) {
  Metrics().errors->Add(1);
  SessionManager::Response response;
  response.lines.push_back(StrFormat("{\"ok\": false, \"error\": \"%s\"}",
                                     JsonEscape(status.ToString()).c_str()));
  return response;
}

SessionManager::Response OneLine(std::string line) {
  SessionManager::Response response;
  response.lines.push_back(std::move(line));
  return response;
}

Result<std::string> RequireString(const JsonValue& request, const char* key) {
  KGACC_ASSIGN_OR_RETURN(std::string value, request.GetString(key));
  if (value.empty()) {
    return Status::InvalidArgument(StrFormat("empty '%s'", key));
  }
  return value;
}

Result<uint64_t> OptionalCount(const JsonValue& request, const char* key,
                               uint64_t fallback) {
  if (request.Find(key) == nullptr) return fallback;
  return request.GetCount(key);
}

/// Renders the common session-status object shared by step/query-estimate/
/// start/resume responses. Live estimate fields come from the last recorded
/// trace round; terminal fields (converged) from the result once available.
std::string SessionStatusJson(ServeSession& session, bool verbose) {
  const ServeSession::Info info = session.GetInfo();
  const SessionTraceSink::Progress progress = session.GetProgress();
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("session").String(session.id());
  json.Key("design").String(session.design());
  json.Key("graph").String(session.graph());
  json.Key("state").String(ServeSession::StateName(info.state));
  json.Key("rounds").Uint(progress.rounds);
  if (progress.rounds > 0) {
    const CampaignRound& last = progress.last;
    json.Key("estimate").Number(last.estimate);
    json.Key("moe").Number(last.moe);
    json.Key("units").Uint(last.units);
    if (verbose) {
      json.Key("ci_lower").Number(last.ci_lower);
      json.Key("ci_upper").Number(last.ci_upper);
      json.Key("cost_seconds").Number(last.cost_seconds);
      json.Key("triples_annotated").Uint(last.triples_annotated);
      json.Key("entities_identified").Uint(last.entities_identified);
    }
  }
  if (info.has_result && info.state == ServeSession::State::kCompleted) {
    json.Key("converged").Bool(info.result.converged);
  }
  json.EndObject();
  return json.TakeString();
}

}  // namespace

SessionManager::SessionManager(GraphStore* graphs) : graphs_(graphs) {}

std::shared_ptr<ServeSession> SessionManager::FindSession(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<ServeSession> SessionManager::FindAnySession(
    const std::string& id) {
  std::shared_ptr<ServeSession> session = FindSession(id);
  if (session == nullptr && scheduler_ != nullptr) {
    session = scheduler_->SessionFor(id);
  }
  return session;
}

bool SessionManager::IsTenant(const std::string& id) const {
  return scheduler_ != nullptr && scheduler_->StatusFor(id).ok();
}

SessionManager::Response SessionManager::HandleLine(const std::string& line) {
  Metrics().requests->Add(1);
  Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const JsonValue& request = *parsed;
  Result<std::string> op = RequireString(request, "op");
  if (!op.ok()) return ErrorResponse(op.status());

  struct Dispatch {
    const char* op;
    obs::Histogram* histogram;
    Response (SessionManager::*handler)(const JsonValue&);
    std::vector<std::string> keys;  ///< accepted top-level keys besides "op".
  };
  static const Dispatch kTable[] = {
      {"load-graph", Metrics().load_graph, &SessionManager::LoadGraph,
       {"graph", "seed"}},
      {"start-campaign", Metrics().start_campaign,
       &SessionManager::StartCampaign,
       {"graph", "design", "options", "annotator", "tenant", "id", "weight",
        "quota_seconds"}},
      {"step", Metrics().step, &SessionManager::Step, {"session", "rounds"}},
      {"query-estimate", Metrics().query_estimate,
       &SessionManager::QueryEstimate, {"session"}},
      {"stream-trace", Metrics().stream_trace, &SessionManager::StreamTrace,
       {"session", "from"}},
      {"suspend", Metrics().suspend, &SessionManager::Suspend, {"session"}},
      {"resume", Metrics().resume, &SessionManager::Resume,
       {"session", "campaign_state"}},
      {"stop", Metrics().stop, &SessionManager::Stop, {"session"}},
      {"set-budget", Metrics().set_budget, &SessionManager::SetBudgetOp,
       {"budget_seconds"}},
      {"tenant-status", Metrics().tenant_status,
       &SessionManager::TenantStatusOp, {"tenant"}},
      {"metrics", Metrics().metrics, &SessionManager::MetricsOp, {}},
      {"shutdown", Metrics().shutdown, &SessionManager::ShutdownOp, {}},
  };
  for (const Dispatch& entry : kTable) {
    if (*op != entry.op) continue;
    obs::ScopedSpan span("serve.request", entry.histogram);
    // A misplaced key (say "moe_target" beside "options" instead of inside
    // it) must not silently run a default campaign.
    for (const auto& [key, value] : request.AsObject()) {
      if (key != "op" && std::find(entry.keys.begin(), entry.keys.end(),
                                   key) == entry.keys.end()) {
        return ErrorResponse(Status::InvalidArgument(
            StrFormat("unknown key '%s' in a %s request", key.c_str(),
                      entry.op)));
      }
    }
    return (this->*entry.handler)(request);
  }
  std::string known;
  for (const Dispatch& entry : kTable) {
    if (!known.empty()) known += ", ";
    known += entry.op;
  }
  return ErrorResponse(Status::InvalidArgument(StrFormat(
      "unknown op '%s' (known: %s)", op->c_str(), known.c_str())));
}

SessionManager::Response SessionManager::LoadGraph(const JsonValue& request) {
  Result<std::string> name = RequireString(request, "graph");
  if (!name.ok()) return ErrorResponse(name.status());
  Result<uint64_t> seed = OptionalCount(request, "seed", 42);
  if (!seed.ok()) return ErrorResponse(seed.status());
  Result<std::shared_ptr<const Dataset>> loaded = graphs_->Load(*name, *seed);
  if (!loaded.ok()) return ErrorResponse(loaded.status());
  const KgView& view = (*loaded)->View();
  return OneLine(StrFormat(
      "{\"ok\": true, \"graph\": \"%s\", \"entities\": %llu, "
      "\"triples\": %llu}",
      JsonEscape(*name).c_str(),
      static_cast<unsigned long long>(view.NumClusters()),
      static_cast<unsigned long long>(view.TotalTriples())));
}

SessionManager::Response SessionManager::StartCampaign(
    const JsonValue& request) {
  CampaignSessionState campaign;
  campaign.annotator = default_annotator_;
  if (const Status parsed = ParseCampaign(request, &campaign); !parsed.ok()) {
    return ErrorResponse(parsed);
  }
  if (request.Find("tenant") != nullptr) {
    Result<bool> tenant = request.GetBool("tenant");
    if (!tenant.ok()) return ErrorResponse(tenant.status());
    if (*tenant) return StartTenantCampaign(request, campaign);
  }
  return StartSession(std::move(campaign), /*id=*/"");
}

SessionManager::Response SessionManager::StartSession(
    CampaignSessionState campaign, std::string id) {
  // The shared unknown-design message: same listing kgacc_eval users see.
  if (!DesignRegistry::Global().Contains(campaign.design)) {
    return ErrorResponse(
        DesignRegistry::Global().UnknownDesign(campaign.design));
  }
  Result<std::shared_ptr<const Dataset>> dataset = graphs_->Get(campaign.graph);
  if (!dataset.ok()) return ErrorResponse(dataset.status());
  // Refused before it takes a session id (the session's own build would
  // refuse it too), so a bad request leaves no gap in the ids.
  for (const Status& valid : {CheckEvaluationOptions(campaign.options),
                              CheckAnnotatorSpec(campaign.annotator)}) {
    if (!valid.ok()) return ErrorResponse(valid);
  }

  if (id.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    id = StrFormat("s%llu", static_cast<unsigned long long>(next_id_++));
  }
  // Built outside the table lock: a campaign's set-up (sampler index, a
  // pilot) and a resume's replay must not stall requests to other sessions.
  // The session replays to the suspension point before it is published, so
  // the response (and any later query) reflects the restored position.
  auto session = std::make_shared<ServeSession>(
      ServeSession::Config{.id = id,
                           .design = std::move(campaign.design),
                           .graph = std::move(campaign.graph),
                           .dataset = std::move(dataset).value(),
                           .options = campaign.options,
                           .annotator = campaign.annotator,
                           .replay_rounds = campaign.rounds_completed});
  if (const Status error = session->GetInfo().error; !error.ok()) {
    return ErrorResponse(error);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_[id] = session;  // replaces the suspended shell on resume-by-id.
  }
  return OneLine(SessionStatusJson(*session, /*verbose=*/false));
}

SessionManager::Response SessionManager::StartTenantCampaign(
    const JsonValue& request, const CampaignSessionState& campaign) {
  if (scheduler_ == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "no scheduler attached; restart the daemon with --scheduler to "
        "admit tenants"));
  }
  TenantConfig tenant;
  tenant.graph = campaign.graph;
  tenant.design = campaign.design;
  tenant.options = campaign.options;
  tenant.annotator = campaign.annotator;
  if (request.Find("id") != nullptr) {
    Result<std::string> id = request.GetString("id");
    if (!id.ok()) return ErrorResponse(id.status());
    tenant.id = std::move(id).value();
  }
  if (request.Find("weight") != nullptr) {
    Result<double> weight = request.GetNumber("weight");
    if (!weight.ok()) return ErrorResponse(weight.status());
    tenant.weight = *weight;
  }
  if (request.Find("quota_seconds") != nullptr) {
    Result<double> quota = request.GetNumber("quota_seconds");
    if (!quota.ok()) return ErrorResponse(quota.status());
    if (*quota < 0.0) {
      return ErrorResponse(
          Status::InvalidArgument("'quota_seconds' must be >= 0"));
    }
    tenant.quota_seconds = *quota;
  }
  Result<std::string> admitted = scheduler_->AddTenant(std::move(tenant));
  if (!admitted.ok()) return ErrorResponse(admitted.status());
  return OneLine(StrFormat(
      "{\"ok\": true, \"tenant\": \"%s\", \"session\": \"%s\", "
      "\"graph\": \"%s\", \"design\": \"%s\", \"state\": \"resident\", "
      "\"policy\": \"%s\"}",
      JsonEscape(*admitted).c_str(), JsonEscape(*admitted).c_str(),
      JsonEscape(campaign.graph).c_str(), JsonEscape(campaign.design).c_str(),
      CampaignScheduler::PolicyName(scheduler_->policy())));
}

SessionManager::Response SessionManager::Step(const JsonValue& request) {
  Result<std::string> id = RequireString(request, "session");
  if (!id.ok()) return ErrorResponse(id.status());
  std::shared_ptr<ServeSession> session = FindSession(*id);
  if (session == nullptr) {
    if (IsTenant(*id)) {
      return ErrorResponse(Status::FailedPrecondition(StrFormat(
          "session '%s' is a scheduler-managed tenant; the scheduler "
          "issues its steps (use set-budget / tenant-status)",
          id->c_str())));
    }
    return ErrorResponse(
        Status::NotFound(StrFormat("no session '%s'", id->c_str())));
  }
  Result<uint64_t> rounds = OptionalCount(request, "rounds", 0);
  if (!rounds.ok()) return ErrorResponse(rounds.status());
  const Status stepped = session->Step(*rounds);
  if (!stepped.ok()) return ErrorResponse(stepped);
  const ServeSession::Info info = session->GetInfo();
  if (!info.error.ok()) return ErrorResponse(info.error);
  return OneLine(SessionStatusJson(*session, /*verbose=*/false));
}

SessionManager::Response SessionManager::QueryEstimate(
    const JsonValue& request) {
  Result<std::string> id = RequireString(request, "session");
  if (!id.ok()) return ErrorResponse(id.status());
  std::shared_ptr<ServeSession> session = FindAnySession(*id);
  if (session == nullptr) {
    return ErrorResponse(
        Status::NotFound(StrFormat("no session '%s'", id->c_str())));
  }
  return OneLine(SessionStatusJson(*session, /*verbose=*/true));
}

SessionManager::Response SessionManager::StreamTrace(const JsonValue& request) {
  Result<std::string> id = RequireString(request, "session");
  if (!id.ok()) return ErrorResponse(id.status());
  std::shared_ptr<ServeSession> session = FindAnySession(*id);
  if (session == nullptr) {
    return ErrorResponse(
        Status::NotFound(StrFormat("no session '%s'", id->c_str())));
  }
  Result<uint64_t> from = OptionalCount(request, "from", 0);
  if (!from.ok()) return ErrorResponse(from.status());

  const ServeSession::Info info = session->GetInfo();
  const CampaignTrace trace = session->TraceAfter(*from);
  const std::vector<CampaignRound>& rounds = trace.rounds;
  Response response;
  response.lines.push_back(StrFormat(
      "{\"ok\": true, \"session\": \"%s\", \"design\": \"%s\", "
      "\"label\": \"%s\", \"state\": \"%s\", \"converged\": %s, "
      "\"from\": %llu, \"rounds\": %llu}",
      JsonEscape(session->id()).c_str(), JsonEscape(trace.design).c_str(),
      JsonEscape(trace.label).c_str(), ServeSession::StateName(info.state),
      trace.converged ? "true" : "false",
      static_cast<unsigned long long>(*from),
      static_cast<unsigned long long>(rounds.size())));
  for (const CampaignRound& round : rounds) {
    response.lines.push_back(RoundToJson(round));
  }
  response.lines.push_back(StrFormat(
      "{\"end\": true, \"session\": \"%s\"}",
      JsonEscape(session->id()).c_str()));
  return response;
}

SessionManager::Response SessionManager::Suspend(const JsonValue& request) {
  Result<std::string> id = RequireString(request, "session");
  if (!id.ok()) return ErrorResponse(id.status());
  std::shared_ptr<ServeSession> session = FindSession(*id);
  if (session == nullptr) {
    if (IsTenant(*id)) {
      return ErrorResponse(Status::FailedPrecondition(StrFormat(
          "session '%s' is a scheduler-managed tenant; the scheduler owns "
          "its residency (eviction suspends it automatically)",
          id->c_str())));
    }
    return ErrorResponse(
        Status::NotFound(StrFormat("no session '%s'", id->c_str())));
  }
  Result<CampaignSessionState> state = session->Suspend();
  if (!state.ok()) return ErrorResponse(state.status());
  return OneLine(StrFormat(
      "{\"ok\": true, \"session\": \"%s\", \"state\": \"suspended\", "
      "\"rounds\": %llu, \"campaign_state\": %s}",
      JsonEscape(session->id()).c_str(),
      static_cast<unsigned long long>(state->rounds_completed),
      CampaignStateJson(*state).c_str()));
}

SessionManager::Response SessionManager::Resume(const JsonValue& request) {
  // Two paths: resume an in-memory suspended session by id, or start the
  // campaign_state object a suspend returned (say, after a daemon restart)
  // and replay its rounds.
  if (request.Find("session") != nullptr) {
    Result<std::string> id = RequireString(request, "session");
    if (!id.ok()) return ErrorResponse(id.status());
    std::shared_ptr<ServeSession> session = FindSession(*id);
    if (session == nullptr) {
      return ErrorResponse(
          Status::NotFound(StrFormat("no session '%s'", id->c_str())));
    }
    Result<CampaignSessionState> state = session->Suspend();
    if (!state.ok()) return ErrorResponse(state.status());
    return StartSession(std::move(state).value(), *id);
  }
  const JsonValue* object = request.Find("campaign_state");
  if (object == nullptr) {
    return ErrorResponse(Status::InvalidArgument(
        "resume needs 'session' (in-memory) or 'campaign_state' (the object "
        "a suspend returned)"));
  }
  CampaignSessionState campaign;
  campaign.annotator = default_annotator_;
  if (const Status parsed = ParseCampaignState(*object, &campaign);
      !parsed.ok()) {
    return ErrorResponse(parsed);
  }
  return StartSession(std::move(campaign), /*id=*/"");
}

SessionManager::Response SessionManager::Stop(const JsonValue& request) {
  Result<std::string> id = RequireString(request, "session");
  if (!id.ok()) return ErrorResponse(id.status());
  std::shared_ptr<ServeSession> session = FindSession(*id);
  if (session == nullptr) {
    if (IsTenant(*id)) {
      const Status stopped = scheduler_->StopTenant(*id);
      if (!stopped.ok()) return ErrorResponse(stopped);
      return OneLine(StrFormat(
          "{\"ok\": true, \"session\": \"%s\", \"state\": \"stopped\"}",
          JsonEscape(*id).c_str()));
    }
    return ErrorResponse(
        Status::NotFound(StrFormat("no session '%s'", id->c_str())));
  }
  const Status stopped = session->Stop();
  if (!stopped.ok()) return ErrorResponse(stopped);
  return OneLine(StrFormat(
      "{\"ok\": true, \"session\": \"%s\", \"state\": \"stopped\"}",
      JsonEscape(session->id()).c_str()));
}

namespace {

void TenantStatusToJson(const TenantStatus& status, JsonWriter& json) {
  json.BeginObject();
  json.Key("tenant").String(status.id);
  json.Key("graph").String(status.graph);
  json.Key("design").String(status.design);
  json.Key("state").String(TenantStateName(status.state));
  json.Key("rounds").Uint(status.rounds);
  json.Key("grants").Uint(status.grants);
  json.Key("wait_grants").Uint(status.wait_grants);
  json.Key("spent_seconds").Number(status.spent_seconds);
  json.Key("ci_width").Number(status.ci_width);
  json.Key("converged").Bool(status.converged);
  json.Key("weight").Number(status.weight);
  json.Key("quota_seconds").Number(status.quota_seconds);
  json.Key("evictions").Uint(status.evictions);
  json.EndObject();
}

/// Budget gauges can be infinite (unlimited); JSON has no literal for that,
/// so unlimited renders as null.
void FiniteOrNull(JsonWriter& json, double value) {
  if (std::isfinite(value)) {
    json.Number(value);
  } else {
    json.Null();
  }
}

}  // namespace

SessionManager::Response SessionManager::SetBudgetOp(
    const JsonValue& request) {
  if (scheduler_ == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "no scheduler attached; restart the daemon with --scheduler"));
  }
  Result<double> budget = request.GetNumber("budget_seconds");
  if (!budget.ok()) return ErrorResponse(budget.status());
  if (*budget < 0.0) {
    return ErrorResponse(
        Status::InvalidArgument("'budget_seconds' must be >= 0"));
  }
  scheduler_->SetBudget(*budget);
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("budget_seconds");
  FiniteOrNull(json, scheduler_->BudgetSeconds());
  json.Key("spent_seconds").Number(scheduler_->SpentSeconds());
  json.EndObject();
  return OneLine(json.TakeString());
}

SessionManager::Response SessionManager::TenantStatusOp(
    const JsonValue& request) {
  if (scheduler_ == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "no scheduler attached; restart the daemon with --scheduler"));
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("policy").String(CampaignScheduler::PolicyName(
      scheduler_->policy()));
  json.Key("budget_seconds");
  FiniteOrNull(json, scheduler_->BudgetSeconds());
  json.Key("spent_seconds").Number(scheduler_->SpentSeconds());
  json.Key("resident_sessions").Uint(scheduler_->ResidentSessions());
  json.Key("evictions").Uint(scheduler_->Evictions());
  if (request.Find("tenant") != nullptr) {
    Result<std::string> id = RequireString(request, "tenant");
    if (!id.ok()) return ErrorResponse(id.status());
    Result<TenantStatus> status = scheduler_->StatusFor(*id);
    if (!status.ok()) return ErrorResponse(status.status());
    json.Key("tenant");
    TenantStatusToJson(*status, json);
  } else {
    json.Key("tenants");
    json.BeginArray();
    for (const TenantStatus& status : scheduler_->Statuses()) {
      TenantStatusToJson(status, json);
    }
    json.EndArray();
  }
  json.EndObject();
  return OneLine(json.TakeString());
}

SessionManager::Response SessionManager::MetricsOp(const JsonValue&) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  return OneLine(StrFormat("{\"ok\": true, \"metrics\": %s}",
                           obs::MetricsToJson(snapshot).c_str()));
}

SessionManager::Response SessionManager::ShutdownOp(const JsonValue&) {
  StopAll();
  Response response;
  response.lines.push_back("{\"ok\": true, \"shutting_down\": true}");
  response.shutdown = true;
  return response;
}

void SessionManager::StopAll() {
  if (scheduler_ != nullptr) {
    scheduler_->StopLoop();
    for (const TenantStatus& status : scheduler_->Statuses()) {
      (void)scheduler_->StopTenant(status.id);
    }
  }
  std::vector<std::shared_ptr<ServeSession>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (const std::shared_ptr<ServeSession>& session : sessions) {
    (void)session->Stop();
  }
}

}  // namespace kgacc::serve
