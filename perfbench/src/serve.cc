// serve: campaigns driven through the daemon. An in-process ServeServer
// serves four nell-profile graphs on loopback; a closed loop of one client
// on one persistent connection runs a fixed list of campaigns:
// start-campaign, then step rounds=1 + query-estimate until the step reports
// completed, then one stream-trace from round 0. An engine round on 817
// clusters takes microseconds, so the request path itself is what is timed.
// Every thread of the workload shares one CPU (PinToOneCpu).
//
// The daemon also has a greedy-ci CampaignScheduler attached. Set-up admits
// a fixed fleet of tenant campaigns to it (start-campaign tenant=true) under
// a residency cap, so eviction and replay-on-resume run. After the client
// script the benchmark thread drives the scheduler until it is idle, then
// reads every tenant's result through query-estimate and stream-trace.

#include <sched.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "datasets/datasets.h"
#include "serve/graph_store.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/serve_client.h"
#include "serve/serve_session.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "serve/tenant.h"
#include "trace.h"
#include "util/json.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using kgacc::JsonValue;
using kgacc::serve::CampaignScheduler;
using kgacc::serve::ServeClient;

// Closed-loop clients. One: with several clients sharing the one CPU, a
// request's latency is mostly its wait behind the other clients' requests,
// and how the CPU scheduler interleaves them moved the median latency of
// otherwise identical runs by a quarter.
constexpr int kClients = 1;
constexpr int kSetupRepeats = 25;
// Campaigns a second (about 600 requests each) on one CPU of a 4-vCPU VM.
constexpr double kCampaignsPerSecond = 40.0;
// Campaigns spread over four nell-profile graphs, so one graph's shape does
// not set the run's annotation hours.
constexpr int kNumGraphs = 4;
constexpr const char* kGraphs[kNumGraphs] = {"nell-0", "nell-1", "nell-2",
                                             "nell-3"};
constexpr double kMoe = 0.01;  // ~300 rounds a campaign at batch_units 5.
constexpr uint64_t kBatchUnits = 5;
constexpr uint64_t kMaxSteps = 100000;  // guard: a campaign that never ends.
constexpr uint64_t kCrossCheckEvery = 32;
// The traced run records spans for every kTraceEvery-th campaign only (a
// full serve script is millions of requests), and drives only those one
// layer down.
constexpr uint64_t kTraceEvery = 8;
// The tenant fleet: kTenants / 2 cohort pairs (two identical campaigns, so
// the second replays labels the first paid for) spread over the four graphs
// and three designs, at most kMaxResident of them resident at a time. The
// budget is unlimited: every tenant runs to its own stop, so its result can
// be checked against an in-process run.
constexpr uint64_t kTenants = 32;
constexpr uint64_t kMaxResident = 8;

kgacc::EvaluationOptions CampaignOptions(uint64_t seed, uint64_t campaign) {
  kgacc::EvaluationOptions options;
  options.moe_target = kMoe;
  options.batch_units = kBatchUnits;
  // The protocol carries numbers as doubles: keep seeds exact in 53 bits.
  options.seed = kgacc::HashCombine(seed, 0x5e77e, campaign) >> 11;
  return options;
}

uint64_t TenantGraph(uint64_t tenant) { return tenant / 2 % kNumGraphs; }

const char* TenantDesign(uint64_t tenant) {
  static const char* const kDesigns[] = {"twcs", "srs", "wcs"};
  return kDesigns[tenant / 2 % 3];
}

kgacc::EvaluationOptions TenantOptions(uint64_t seed, uint64_t tenant) {
  const uint64_t pair = tenant / 2;
  kgacc::EvaluationOptions options;
  options.moe_target = pair % 2 == 0 ? 0.03 : 0.05;
  options.batch_units = kBatchUnits;
  options.seed = kgacc::HashCombine(seed, 0x7e4a47, pair) >> 11;
  return options;
}

std::string TenantId(uint64_t tenant) {
  return kgacc::StrFormat("tenant-%02llu",
                          static_cast<unsigned long long>(tenant));
}

std::string OptionsJson(const kgacc::EvaluationOptions& options) {
  return kgacc::StrFormat(
      R"({"moe_target": %.17g, "batch_units": %llu, "seed": %llu})",
      options.moe_target, static_cast<unsigned long long>(options.batch_units),
      static_cast<unsigned long long>(options.seed));
}

/// What the client saw of one finished campaign (its last query-estimate).
struct Served {
  uint64_t campaign = 0;
  uint64_t rounds = 0;
  double estimate = 0.0;
  double moe = 1.0;
  double cost_seconds = 0.0;
  uint64_t entities = 0;
  uint64_t triples = 0;
  bool converged = false;
};

/// What one client thread measured.
struct ClientLog {
  Clock::time_point start;  ///< the script clock's zero.
  std::vector<double> step_ms;
  std::vector<double> step_end_s;
  std::vector<double> done_s;  ///< completion time of every request.
  std::vector<double> query_ms;
  uint64_t requests = 0;
  uint64_t error_responses = 0;
  double sampled_s = 0.0;  ///< wall time of the campaigns a traced run traces.
  RunRecord checks;
  std::vector<Served> served;
};

/// One server with its graph store, scheduler and connected clients. Members
/// are destroyed bottom-up: clients disconnect, then the server shuts down,
/// then what it served goes.
struct Daemon {
  std::unique_ptr<kgacc::serve::GraphStore> graphs;
  std::vector<std::shared_ptr<const kgacc::Dataset>> datasets;
  std::unique_ptr<CampaignScheduler> scheduler;
  std::unique_ptr<kgacc::serve::SessionManager> manager;
  std::unique_ptr<kgacc::serve::ServeServer> server;
  std::vector<std::unique_ptr<ServeClient>> clients;

  void Stop() {
    clients.clear();
    server.reset();
    manager.reset();
    scheduler.reset();
    datasets.clear();
    graphs.reset();
  }
};

/// Gives the daemon a fresh scheduler and admits the tenant fleet to it over
/// the first client's connection, in tenant order, so the arrival order (and
/// with it the grant sequence) is fixed.
bool AdmitTenants(uint64_t seed, Daemon* d) {
  CampaignScheduler::Options options;
  options.policy = CampaignScheduler::Policy::kGreedyCi;
  options.max_resident_sessions = kMaxResident;
  auto scheduler =
      std::make_unique<CampaignScheduler>(d->graphs.get(), options);
  d->manager->AttachScheduler(scheduler.get());
  d->scheduler = std::move(scheduler);  // ends the previous fleet, if any.
  for (uint64_t t = 0; t < kTenants; ++t) {
    const kgacc::Result<std::string> line =
        d->clients[0]->Call(kgacc::serve::BuildStartTenantCampaign(
            kGraphs[TenantGraph(t)], TenantDesign(t),
            OptionsJson(TenantOptions(seed, t)), "", 1.0, 0.0, TenantId(t)));
    if (!line.ok()) return false;
    const kgacc::Result<JsonValue> admitted = JsonValue::Parse(*line);
    const JsonValue* id = admitted.ok() && admitted->is_object()
                              ? admitted->Find("tenant")
                              : nullptr;
    if (id == nullptr || !id->is_string() || id->AsString() != TenantId(t)) {
      return false;
    }
  }
  return true;
}

bool StartDaemon(uint64_t seed, Daemon* d) {
  d->graphs = std::make_unique<kgacc::serve::GraphStore>();
  for (int g = 0; g < kNumGraphs; ++g) {
    // The served graphs are fixed datasets, as NELL is; the seed draws the
    // campaigns run on them, so seeds differ in samples, not in the graphs.
    ScopedSpan span("datasets.generate");
    auto dataset = std::make_shared<kgacc::Dataset>(
        kgacc::MakeNell(kgacc::HashCombine(0x9e11, g)));
    d->graphs->Put(kGraphs[g], dataset);
    d->datasets.push_back(std::move(dataset));
  }
  ScopedSpan span("serve.start");
  d->manager = std::make_unique<kgacc::serve::SessionManager>(d->graphs.get());
  d->server = std::make_unique<kgacc::serve::ServeServer>(d->manager.get(), 0);
  if (!d->server->Start().ok()) return false;
  for (int c = 0; c < kClients; ++c) {
    d->clients.push_back(std::make_unique<ServeClient>());
    if (!d->clients.back()->Connect(d->server->port()).ok()) return false;
  }
  return AdmitTenants(seed, d);
}

/// A numeric member, or -1 when it is missing.
double NumberField(const JsonValue& v, const char* key) {
  const JsonValue* field = v.Find(key);
  return field != nullptr && field->is_number() ? field->AsNumber() : -1.0;
}

/// A count member, or 0 when it is missing or not a count.
uint64_t CountField(const JsonValue& v, const char* key) {
  const double x = NumberField(v, key);
  return x >= 0.0 && x < 9007199254740992.0 ? static_cast<uint64_t>(x) : 0;
}

/// How a client script reaches the daemon: over its TCP connection, or
/// straight into SessionManager::HandleLine (one layer down).
struct Transport {
  ServeClient* client = nullptr;
  kgacc::serve::SessionManager* manager = nullptr;

  kgacc::Result<std::vector<std::string>> Call(const std::string& request,
                                               bool multi) {
    if (client == nullptr) return manager->HandleLine(request).lines;
    if (multi) {
      return client->CallMulti(request, kgacc::serve::StreamTraceExtraLines);
    }
    KGACC_ASSIGN_OR_RETURN(std::string line, client->Call(request));
    return std::vector<std::string>{std::move(line)};
  }
};

/// Span names of one request type, over TCP and through HandleLine.
struct Op {
  const char* name;
  const char* tcp_span;
  const char* handle_span;
};
constexpr Op kStart{"start-campaign", "serve.request.start-campaign",
                    "serve.handle.start-campaign"};
constexpr Op kStep{"step", "serve.request.step", "serve.handle.step"};
constexpr Op kQuery{"query-estimate", "serve.request.query-estimate",
                    "serve.handle.query-estimate"};
constexpr Op kStream{"stream-trace", "serve.request.stream-trace",
                     "serve.handle.stream-trace"};

/// Sends one request and records when it completed; `ms` (may be null)
/// receives its latency.
kgacc::Result<std::vector<std::string>> Timed(Transport* transport,
                                              const Op& op,
                                              const std::string& request,
                                              std::vector<double>* ms,
                                              ClientLog* log) {
  ++log->requests;
  const Clock::time_point start = Clock::now();
  kgacc::Result<std::vector<std::string>> response = [&] {
    ScopedSpan span(transport->client ? op.tcp_span : op.handle_span);
    return transport->Call(request, &op == &kStream);
  }();
  const Clock::time_point end = Clock::now();
  if (ms != nullptr) ms->push_back(Millis(end - start));
  log->done_s.push_back(Seconds(end - log->start));
  if (&op == &kStep) log->step_end_s.push_back(log->done_s.back());
  return response;
}

/// The single line of a one-line response.
kgacc::Result<std::string> OneLine(
    const kgacc::Result<std::vector<std::string>>& lines) {
  if (!lines.ok()) return lines.status();
  if (lines->size() != 1) {
    return kgacc::Status::Internal("expected a one-line response");
  }
  return lines->front();
}

/// Parses a response line; a transport error, a line that is not JSON or a
/// response without "ok": true is an error response.
std::optional<JsonValue> Parse(
    const kgacc::Result<std::vector<std::string>>& lines, const char* op,
    ClientLog* log) {
  ScopedSpan span("bench.check");
  std::optional<JsonValue> value;
  const kgacc::Result<std::string> line = OneLine(lines);
  if (line.ok()) {
    kgacc::Result<JsonValue> parsed = JsonValue::Parse(*line);
    if (parsed.ok() && parsed->is_object()) {
      const JsonValue* ok = parsed->Find("ok");
      if (ok != nullptr && ok->is_bool() && ok->AsBool()) value = *parsed;
    }
  }
  if (!value) ++log->error_responses;
  log->checks.Check(value.has_value(), std::string(op) + ": error response");
  return value;
}

/// Checks a stream-trace response: a header, rounds 1..k in order, the end
/// marker.
void CheckStream(const kgacc::Result<std::vector<std::string>>& lines,
                 uint64_t rounds, ClientLog* log) {
  ScopedSpan span("bench.check");
  bool ok = lines.ok() && lines->size() == rounds + 2;
  for (uint64_t k = 0; ok && k < lines->size(); ++k) {
    kgacc::Result<JsonValue> v = JsonValue::Parse((*lines)[k]);
    if (!v.ok() || !v->is_object()) {
      ok = false;
    } else if (k == 0) {
      const JsonValue* flag = v->Find("ok");
      ok = flag != nullptr && flag->is_bool() && flag->AsBool();
    } else if (k <= rounds) {
      ok = NumberField(*v, "round") == static_cast<double>(k);
    } else {
      ok = v->Find("end") != nullptr;
    }
  }
  if (!ok) ++log->error_responses;
  log->checks.Check(ok, "stream-trace: rounds are not 1..k");
}

/// A finished campaign as a query-estimate response describes it.
Served ServedFrom(const JsonValue& query, uint64_t campaign) {
  Served served;
  served.campaign = campaign;
  served.rounds = CountField(query, "rounds");
  served.estimate = NumberField(query, "estimate");
  served.moe = NumberField(query, "moe");
  served.cost_seconds = NumberField(query, "cost_seconds");
  served.entities = CountField(query, "entities_identified");
  served.triples = CountField(query, "triples_annotated");
  const JsonValue* converged = query.Find("converged");
  served.converged =
      converged != nullptr && converged->is_bool() && converged->AsBool();
  return served;
}

bool IsCompleted(const JsonValue& status) {
  const JsonValue* state = status.Find("state");
  return state != nullptr && state->is_string() &&
         state->AsString() == "completed";
}

/// Runs one campaign: start, step + query until completed, stream-trace.
void RunOneCampaign(Transport& transport, uint64_t campaign, uint64_t seed,
                    ClientLog* log) {
  std::optional<JsonValue> started = Parse(
      Timed(&transport, kStart,
            kgacc::serve::BuildStartCampaign(
                kGraphs[campaign % kNumGraphs], "twcs",
                OptionsJson(CampaignOptions(seed, campaign))),
            nullptr, log),
      kStart.name, log);
  const JsonValue* id = started ? started->Find("session") : nullptr;
  if (id == nullptr || !id->is_string()) return;
  const std::string session = id->AsString();
  const std::string step_request = kgacc::serve::BuildStep(session, 1);
  const std::string query_request =
      kgacc::serve::BuildQueryEstimate(session);

  std::optional<JsonValue> last;
  bool completed = false;
  for (uint64_t s = 0; s < kMaxSteps && !completed; ++s) {
    std::optional<JsonValue> step = Parse(
        Timed(&transport, kStep, step_request, &log->step_ms, log),
        kStep.name, log);
    std::optional<JsonValue> query = Parse(
        Timed(&transport, kQuery, query_request, &log->query_ms, log),
        kQuery.name, log);
    if (!step || !query) break;
    completed = IsCompleted(*step);
    last = std::move(query);
  }
  log->checks.Check(completed && last.has_value(),
                    "campaign did not complete through step requests");
  if (!completed || !last) return;

  const Served served = ServedFrom(*last, campaign);
  log->served.push_back(served);

  CheckStream(Timed(&transport, kStream,
                    kgacc::serve::BuildStreamTrace(session, 0),
                    nullptr, log),
              served.rounds, log);
}

bool Sampled(uint64_t campaign) { return campaign % kTraceEvery == 0; }

/// Runs one client's campaigns in order.
void ClientScript(Transport transport, const std::vector<uint64_t>& campaigns,
                  uint64_t seed, ClientLog* log) {
  for (const uint64_t campaign : campaigns) {
    Tracer::SetOp(campaign);
    Tracer::SetThreadEnabled(Sampled(campaign));
    const Clock::time_point start = Clock::now();
    RunOneCampaign(transport, campaign, seed, log);
    if (Sampled(campaign)) log->sampled_s += Seconds(Clock::now() - start);
  }
  Tracer::SetThreadEnabled(true);
}

/// Campaign indices of client `c`: c, c + kClients, c + 2 kClients, ...
/// (only the traced sample when `sampled_only`).
std::vector<std::vector<uint64_t>> SplitCampaigns(uint64_t n,
                                                  bool sampled_only) {
  std::vector<std::vector<uint64_t>> split(kClients);
  for (uint64_t i = 0; i < n; ++i) {
    if (!sampled_only || Sampled(i)) split[i % kClients].push_back(i);
  }
  return split;
}

/// Runs the script once over the daemon's connections, or (`tcp` false) its
/// traced sample through HandleLine on as many threads. Returns the
/// per-client logs; `wall_s` receives spawn-to-join wall time.
std::vector<ClientLog> Drive(Daemon* d, bool tcp, uint32_t pass, uint64_t n,
                             uint64_t seed, double* wall_s) {
  const std::vector<std::vector<uint64_t>> split = SplitCampaigns(n, !tcp);
  std::vector<ClientLog> logs(kClients);
  const Clock::time_point start = Clock::now();
  for (ClientLog& log : logs) log.start = start;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Tracer::SetPass(pass);
        Transport transport;
        if (tcp) {
          transport.client = d->clients[c].get();
        } else {
          transport.manager = d->manager.get();
        }
        ClientScript(transport, split[c], seed, &logs[c]);
      });
    }
  }
  *wall_s = Seconds(Clock::now() - start);
  return logs;
}

/// The invariants of one served campaign of `design` run with `options`,
/// and (when `cross_check`) equality with an in-process run of the same
/// campaign.
void CheckServed(const Served& s, const std::string& what,
                 const std::string& design,
                 const kgacc::EvaluationOptions& options,
                 const kgacc::Dataset& graph, const kgacc::CostModel& cost,
                 bool cross_check, RunRecord* record) {
  record->Check(!s.converged || s.moe <= options.moe_target,
                what + ": converged with moe above target");
  const double eq4 = cost.SampleCostSeconds(s.entities, s.triples);
  record->Check(std::abs(s.cost_seconds - eq4) <= 1e-9 * std::max(1.0, eq4),
                what + ": cost differs from Eq 4 of its ledger");
  if (!cross_check) return;
  kgacc::Result<kgacc::EvaluationResult> local =
      PlainCampaign(design, graph.View(), *graph.oracle, cost, options);
  record->Check(local.ok() && local->rounds == s.rounds &&
                    local->estimate.mean == s.estimate && local->moe == s.moe &&
                    local->converged == s.converged &&
                    local->annotation_seconds == s.cost_seconds &&
                    local->ledger.entities_identified == s.entities &&
                    local->ledger.triples_annotated == s.triples,
                what + ": served result differs from DesignRegistry::Run");
}

/// Merges client logs into the record; returns the summed wall time of the
/// traced sample of campaigns.
double Merge(std::vector<ClientLog>& logs, RunRecord* record, bool timings) {
  double sampled = 0.0;
  for (ClientLog& log : logs) {
    sampled += log.sampled_s;
    record->attempted += log.checks.attempted;
    record->failures.insert(record->failures.end(),
                            log.checks.failures.begin(),
                            log.checks.failures.end());
    record->counts["error_responses"] +=
        static_cast<double>(log.error_responses);
    if (!timings) continue;
    record->ops += log.requests;
    record->op_ms.insert(record->op_ms.end(), log.step_ms.begin(),
                         log.step_ms.end());
    record->op_end_s.insert(record->op_end_s.end(), log.step_end_s.begin(),
                            log.step_end_s.end());
    record->done_s.insert(record->done_s.end(), log.done_s.begin(),
                          log.done_s.end());
    auto& query = record->samples["query_ms"];
    query.insert(query.end(), log.query_ms.begin(), log.query_ms.end());
  }
  return sampled;
}

std::string ServedKey(const Served& s) {
  return kgacc::StrFormat("%llu %llu %.17g %.17g %.17g %llu %llu %d",
                          static_cast<unsigned long long>(s.campaign),
                          static_cast<unsigned long long>(s.rounds),
                          s.estimate, s.moe, s.cost_seconds,
                          static_cast<unsigned long long>(s.entities),
                          static_cast<unsigned long long>(s.triples),
                          s.converged ? 1 : 0);
}

/// Steps campaign `campaign` through a ServeSession of its own, one round per
/// Step, as the daemon's step requests do; returns what it served.
Served StepSession(const Daemon& d, uint64_t campaign, uint64_t seed) {
  using State = kgacc::serve::ServeSession::State;
  kgacc::serve::ServeSession::Config config;
  config.id =
      kgacc::StrFormat("p%llu", static_cast<unsigned long long>(campaign));
  config.design = "twcs";
  config.graph = kGraphs[campaign % kNumGraphs];
  config.dataset = d.datasets[campaign % kNumGraphs];
  config.options = CampaignOptions(seed, campaign);
  kgacc::serve::ServeSession session(config);
  kgacc::serve::ServeSession::Info info;
  for (uint64_t s = 0; s < kMaxSteps; ++s) {
    kgacc::Status stepped = [&] {
      ScopedSpan span("serve.session_step");
      return session.Step(1);
    }();
    info = session.GetInfo();
    if (!stepped.ok() || info.state != State::kRunning) break;
  }
  Served served;
  served.campaign = campaign;
  if (info.state != State::kCompleted) return served;
  const kgacc::EvaluationResult& r = info.result;
  served.rounds = r.rounds;
  served.estimate = r.estimate.mean;
  served.moe = r.moe;
  served.cost_seconds = r.annotation_seconds;
  served.entities = r.ledger.entities_identified;
  served.triples = r.ledger.triples_annotated;
  served.converged = r.converged;
  return served;
}

std::vector<Served> ByCampaign(const std::vector<ClientLog>& logs,
                               uint64_t n) {
  std::vector<Served> all(n);
  for (const ClientLog& log : logs) {
    for (const Served& s : log.served) all[s.campaign] = s;
  }
  return all;
}

/// What one drive of the tenant fleet did.
struct FleetRun {
  double wall_s = 0.0;
  std::string log;  ///< the grant log, one GrantRecord::ToLine per line.
  uint64_t grants = 0;
  uint64_t free_grants = 0;  ///< grants charged 0 (cohort replays).
  std::vector<kgacc::serve::TenantStatus> tenants;
  double spent_seconds = 0.0;
  double overhead_s = 0.0;  ///< CampaignScheduler::OverheadSeconds().
  uint64_t evictions = 0;
};

/// Drives the daemon's scheduler on this thread until it has nothing left to
/// grant, so the grant sequence is a pure function of the admitted fleet.
FleetRun DriveFleet(CampaignScheduler* scheduler) {
  FleetRun run;
  const Clock::time_point start = Clock::now();
  for (uint64_t grant = 0;; ++grant) {
    Tracer::SetOp(grant);
    const double overhead_before = scheduler->OverheadSeconds();
    const int64_t begin = NowNs();
    ScopedSpan span("sched.grant");
    if (!scheduler->GrantNext()) break;
    if (Tracer::Enabled()) {
      // The scheduler's own time (pick, charge accounting, eviction) is
      // known only as a total; the rest of the grant is the tenant's session
      // resuming and running its round.
      const int64_t end = NowNs();
      const auto own = static_cast<int64_t>(
          (scheduler->OverheadSeconds() - overhead_before) * 1e9);
      Tracer::Add("serve.round", std::min(end, begin + own), end);
    }
  }
  run.wall_s = Seconds(Clock::now() - start);
  for (const kgacc::serve::GrantRecord& g : scheduler->GrantLog()) {
    run.log += g.ToLine() + "\n";
    ++run.grants;
    if (g.charged_seconds == 0.0) ++run.free_grants;
  }
  run.tenants = scheduler->Statuses();
  run.spent_seconds = scheduler->SpentSeconds();
  run.overhead_s = scheduler->OverheadSeconds();
  run.evictions = scheduler->Evictions();
  return run;
}

/// Reads every tenant's result over the first client's connection:
/// query-estimate, then stream-trace from round 0.
std::vector<Served> ReadTenants(Daemon* d, ClientLog* log) {
  Transport transport;
  transport.client = d->clients[0].get();
  std::vector<Served> read(kTenants);
  for (uint64_t t = 0; t < kTenants; ++t) {
    const std::optional<JsonValue> query =
        Parse(Timed(&transport, kQuery,
                    kgacc::serve::BuildQueryEstimate(TenantId(t)), nullptr,
                    log),
              kQuery.name, log);
    log->checks.Check(query && IsCompleted(*query),
                      TenantId(t) + ": did not complete");
    if (!query) continue;
    read[t] = ServedFrom(*query, t);
    CheckStream(Timed(&transport, kStream,
                      kgacc::serve::BuildStreamTrace(TenantId(t), 0), nullptr,
                      log),
                read[t].rounds, log);
  }
  return read;
}

/// The fleet's invariants: no tenant failed and each ran to its own stop, a
/// cohort pair (two identical campaigns) paid at most once for its labels,
/// and the fleet spent what its tenants were charged.
void CheckFleet(const FleetRun& run, const std::vector<Served>& read,
                RunRecord* record) {
  record->Check(run.tenants.size() == kTenants, "tenants went missing");
  if (run.tenants.size() != kTenants) return;
  double charged = 0.0;
  for (uint64_t t = 0; t < kTenants; ++t) {
    const kgacc::serve::TenantStatus& status = run.tenants[t];
    record->Check(status.id == TenantId(t) &&
                      status.state == kgacc::serve::TenantState::kCompleted,
                  TenantId(t) + ": failed or did not complete");
    charged += status.spent_seconds;
    if (t % 2 == 1) {
      const double pair =
          run.tenants[t - 1].spent_seconds + status.spent_seconds;
      record->Check(pair <= read[t].cost_seconds * (1.0 + 1e-9),
                    TenantId(t) + ": cohort pair paid twice for its labels");
    }
  }
  record->Check(std::abs(run.spent_seconds - charged) <=
                    1e-9 * std::max(1.0, charged),
                "fleet spend differs from its tenants' charges");
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the last CPU it may run on. On one CPU a request never waits for another
/// (virtual) CPU to wake up: on a shared VM such wake-ups made otherwise
/// identical runs differ by up to 1.6x.
bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

void RunServe(const Args& args, RunRecord* record) {
  record->Check(PinToOneCpu(), "could not pin the workload to one CPU");
  const kgacc::CostModel cost;  // the daemon's default annotator costs.
  Daemon daemon;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  Tracer::SetPass(kPassSetup);
  Tracer::SetEnabled(args.trace);
  for (int r = 0; r < repeats; ++r) {
    daemon.Stop();  // at most one daemon alive at a time.
    const Clock::time_point start = Clock::now();
    const bool started = StartDaemon(args.seed, &daemon);
    record->setup_s.push_back(Seconds(Clock::now() - start));
    record->Check(started, "daemon set-up failed");
    if (!started) return;
  }
  Tracer::SetEnabled(false);
  Tracer::SetPass(kPassScript);

  const uint64_t n = ScriptLength(args.seconds, kCampaignsPerSecond, kClients,
                                  kClients * 8);
  std::vector<ClientLog> logs = Drive(&daemon, true, kPassScript, n,
                                      args.seed, &record->script_s);
  record->untraced_s = Merge(logs, record, /*timings=*/true);
  const std::vector<Served> served = ByCampaign(logs, n);
  for (uint64_t i = 0; i < n; ++i) {
    record->Check(served[i].rounds > 0,
                  kgacc::StrFormat("campaign %llu was not served",
                                   static_cast<unsigned long long>(i)));
    if (served[i].rounds == 0) continue;
    record->hours.push_back(served[i].cost_seconds / 3600.0);
    CheckServed(served[i],
                kgacc::StrFormat("campaign %llu",
                                 static_cast<unsigned long long>(i)),
                "twcs", CampaignOptions(args.seed, i),
                *daemon.datasets[i % kNumGraphs], cost,
                i % kCrossCheckEvery == 0, record);
  }

  // The tenant fleet admitted at set-up: drive it, read and check every
  // tenant. Then admit it again and drive the repeat (traced in a traced
  // run), whose grant log and results must be byte-identical.
  std::vector<ClientLog> fleet_logs(1);
  fleet_logs[0].start = Clock::now();
  const FleetRun fleet = DriveFleet(daemon.scheduler.get());
  const std::vector<Served> tenants = ReadTenants(&daemon, &fleet_logs[0]);
  CheckFleet(fleet, tenants, record);
  for (uint64_t t = 0; t < kTenants; ++t) {
    CheckServed(tenants[t], TenantId(t), TenantDesign(t),
                TenantOptions(args.seed, t),
                *daemon.datasets[TenantGraph(t)], cost, true, record);
  }
  record->values["grants_per_s"] =
      static_cast<double>(fleet.grants) / fleet.wall_s;
  record->Check(AdmitTenants(args.seed, &daemon), "tenant admission failed");
  Tracer::SetEnabled(args.trace);
  const FleetRun repeat = DriveFleet(daemon.scheduler.get());
  Tracer::SetEnabled(false);
  const std::vector<Served> reread = ReadTenants(&daemon, &fleet_logs[0]);
  record->Check(repeat.log == fleet.log,
                "repeated fleet drive produced a different grant log");
  for (uint64_t t = 0; t < kTenants; ++t) {
    record->Check(ServedKey(reread[t]) == ServedKey(tenants[t]),
                  TenantId(t) + ": repeated fleet drive served another result");
  }
  Merge(fleet_logs, record, /*timings=*/false);
  if (!args.trace) return;
  record->untraced_s += fleet.wall_s;
  record->traced_s += repeat.wall_s;
  record->counts["grants"] = static_cast<double>(repeat.grants);
  record->counts["free_grants"] = static_cast<double>(repeat.free_grants);
  record->counts["evictions"] = static_cast<double>(repeat.evictions);
  record->counts["sched_overhead_s"] = repeat.overhead_s;

  // Traced pass over TCP: client spans only, the daemon is a black box.
  Tracer::SetEnabled(true);
  double traced_wall = 0.0;
  std::vector<ClientLog> traced =
      Drive(&daemon, true, kPassScript, n, args.seed, &traced_wall);
  record->traced_s += Merge(traced, record, /*timings=*/false);
  // One layer down: the traced sample's requests straight into HandleLine.
  std::vector<ClientLog> handled =
      Drive(&daemon, false, kPassHandleLine, n, args.seed, &traced_wall);
  Merge(handled, record, /*timings=*/false);
  const std::vector<Served> traced_served = ByCampaign(traced, n);
  const std::vector<Served> handled_served = ByCampaign(handled, n);
  for (uint64_t i = 0; i < n; ++i) {
    record->Check(ServedKey(traced_served[i]) == ServedKey(served[i]) &&
                      (!Sampled(i) ||
                       ServedKey(handled_served[i]) == ServedKey(served[i])),
                  "traced serve campaign differs from untraced");
  }

  // Further down: the same campaigns stepped through their sessions, then
  // run straight through the engine, on as many threads, so passes 4 and 1
  // split what the requests of pass 0 contain.
  const std::vector<std::vector<uint64_t>> split = SplitCampaigns(n, true);
  std::vector<LayerCounts> counts(kClients);
  std::vector<RunRecord> checks(kClients);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Tracer::SetPass(kPassSession);
        for (const uint64_t campaign : split[c]) {
          Tracer::SetOp(campaign);
          checks[c].Check(ServedKey(StepSession(daemon, campaign, args.seed)) ==
                              ServedKey(served[campaign]),
                          "session pass differs from served campaign");
        }
      });
    }
  }
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Tracer::SetPass(kPassLayerDown);
        for (const uint64_t campaign : split[c]) {
          Tracer::SetOp(campaign);
          const kgacc::Dataset& graph =
              *daemon.datasets[campaign % kNumGraphs];
          kgacc::Result<kgacc::EvaluationResult> r = TracedCampaign(
              "twcs", graph.View(), *graph.oracle, cost,
              CampaignOptions(args.seed, campaign), &counts[c]);
          const Served& s = served[campaign];
          checks[c].Check(r.ok() && r->rounds == s.rounds &&
                              r->estimate.mean == s.estimate,
                          "engine pass differs from served campaign");
        }
      });
    }
  }
  Tracer::SetEnabled(false);
  for (int c = 0; c < kClients; ++c) {
    counts[c].AddTo(&record->counts);
    record->attempted += checks[c].attempted;
    record->failures.insert(record->failures.end(), checks[c].failures.begin(),
                            checks[c].failures.end());
  }
  record->counts["ops"] = static_cast<double>(record->ops);
}

}  // namespace perfbench
