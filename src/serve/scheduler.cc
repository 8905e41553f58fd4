#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/design_registry.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgacc::serve {

namespace {

/// Fleet-level counters/gauges. Resolved once; registry pointers live for
/// the process lifetime.
struct SchedMetrics {
  obs::Counter* grants =
      obs::MetricsRegistry::Global().GetCounter("sched.grants");
  obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter("sched.evictions");
  obs::Counter* resumes =
      obs::MetricsRegistry::Global().GetCounter("sched.resumes");
  obs::Gauge* budget =
      obs::MetricsRegistry::Global().GetGauge("sched.budget_seconds");
  obs::Gauge* spent =
      obs::MetricsRegistry::Global().GetGauge("sched.budget_spent_seconds");
  obs::Gauge* tenants =
      obs::MetricsRegistry::Global().GetGauge("sched.tenants");
  obs::Gauge* residents =
      obs::MetricsRegistry::Global().GetGauge("sched.resident_sessions");
  obs::Histogram* select = obs::MetricsRegistry::Global().GetHistogram(
      "sched.select_seconds");
};

SchedMetrics& Metrics() {
  static SchedMetrics metrics;
  return metrics;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The session of tenant `config`, its first `replay_rounds` rounds replayed
/// before it returns, reporting what it annotates to `observer`.
std::shared_ptr<ServeSession> MakeTenantSession(
    const TenantConfig& config, std::shared_ptr<const Dataset> dataset,
    uint64_t replay_rounds, AnnotationObserver* observer) {
  return std::make_shared<ServeSession>(
      ServeSession::Config{.id = config.id,
                           .design = config.design,
                           .graph = config.graph,
                           .dataset = std::move(dataset),
                           .options = config.options,
                           .annotator = config.annotator,
                           .replay_rounds = replay_rounds,
                           .observer = observer});
}

/// The charge a free round's greedy score is divided by: the round is fully
/// covered by the fleet cache and costs 0 budget seconds, and dividing by ε
/// keeps its score finite, enormous, and deterministic — free progress is
/// always the best buy.
constexpr double kChargeEpsilon = 1e-9;

}  // namespace

const char* TenantStateName(TenantState state) {
  switch (state) {
    case TenantState::kResident: return "resident";
    case TenantState::kEvicted: return "evicted";
    case TenantState::kCompleted: return "completed";
    case TenantState::kStopped: return "stopped";
    case TenantState::kFailed: return "failed";
  }
  return "unknown";
}

std::string GrantRecord::ToLine() const {
  return StrFormat(
      "grant=%llu tenant=%s round=%llu charged=%.17g spent=%.17g "
      "ci_width=%.17g completed=%d",
      static_cast<unsigned long long>(grant), tenant.c_str(),
      static_cast<unsigned long long>(round), charged_seconds, spent_seconds,
      ci_width, completed ? 1 : 0);
}

/// Per-graph fleet set of already-purchased labels. The cache's marks are
/// reused as the set (the label value is irrelevant — only membership is);
/// one mutex per graph since observers run on whichever thread steps a
/// session.
struct CampaignScheduler::FleetCache {
  std::mutex mutex;
  ShardedAnnotationCache cache;
};

struct CampaignScheduler::Tenant {
  TenantConfig config;
  uint64_t arrival = 0;
  TenantState state = TenantState::kResident;
  std::shared_ptr<ServeSession> session;
  uint64_t evicted_rounds = 0;  ///< rounds to replay on resume, while evicted.
  CostModel cost;
  FleetCache* fleet = nullptr;
  ChargeObserver observer;
  double pending_charge = 0.0;  ///< guarded by charge_mutex_.
  uint64_t rounds = 0;
  uint64_t grants = 0;
  uint64_t wait_grants = 0;
  uint64_t evictions = 0;
  uint64_t last_grant = 0;  ///< global grant index; 0 = never granted.
  double spent = 0.0;
  /// Sample-cohort key (graph + design + sampling seed): tenants in one
  /// cohort draw identical unit sequences, so whoever is behind replays
  /// labels the leader already bought — its next round is free.
  std::string cohort;
  double ci_width = 1.0;  ///< accuracy CIs live in [0,1]; 1 = know nothing.
  bool converged = false;
  bool stop_requested = false;
  obs::Gauge* g_spent = nullptr;
  obs::Gauge* g_ci_width = nullptr;
  obs::Gauge* g_rounds = nullptr;
  obs::Counter* c_grants = nullptr;
};

void CampaignScheduler::ChargeObserver::OnAnnotate(
    std::span<const TripleRef> refs) {
  FleetCache& fleet = *tenant_->fleet;
  uint64_t novel_entities = 0;
  uint64_t novel_triples = 0;
  {
    std::lock_guard<std::mutex> lock(fleet.mutex);
    for (const TripleRef& ref : refs) {
      const ShardedAnnotationCache::Marked marked = fleet.cache.Mark(ref);
      novel_entities += marked.new_entity ? 1 : 0;
      novel_triples += marked.new_triple ? 1 : 0;
    }
  }
  if (novel_entities == 0 && novel_triples == 0) return;  // full reuse.
  const double charge =
      tenant_->cost.SampleCostSeconds(novel_entities, novel_triples);
  std::lock_guard<std::mutex> lock(scheduler_->charge_mutex_);
  tenant_->pending_charge += charge;
}

const char* CampaignScheduler::PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kGreedyCi: return "greedy-ci";
    case Policy::kRoundRobin: return "round-robin";
    case Policy::kWeightedFair: return "weighted-fair";
  }
  return "unknown";
}

Result<CampaignScheduler::Policy> CampaignScheduler::ParsePolicy(
    const std::string& name) {
  if (name == "greedy-ci") return Policy::kGreedyCi;
  if (name == "round-robin") return Policy::kRoundRobin;
  if (name == "weighted-fair") return Policy::kWeightedFair;
  return Status::InvalidArgument(StrFormat(
      "unknown scheduler policy '%s' (known: greedy-ci, round-robin, "
      "weighted-fair)",
      name.c_str()));
}

CampaignScheduler::CampaignScheduler(GraphStore* graphs, Options options)
    : graphs_(graphs),
      options_(options),
      budget_seconds_(options.budget_seconds) {
  KGACC_CHECK(graphs_ != nullptr);
  Metrics().budget->Set(budget_seconds_);
  Metrics().spent->Set(0.0);
}

CampaignScheduler::~CampaignScheduler() { StopLoop(); }

Result<std::string> CampaignScheduler::AddTenant(TenantConfig config) {
  if (!(config.weight > 0.0)) {
    return Status::InvalidArgument("tenant weight must be > 0");
  }
  if (config.options.telemetry != nullptr ||
      config.options.control != nullptr) {
    return Status::InvalidArgument(
        "tenant options must leave telemetry/control null; the session "
        "wires its own");
  }
  if (!DesignRegistry::Global().Contains(config.design)) {
    return DesignRegistry::Global().UnknownDesign(config.design);
  }
  KGACC_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> dataset,
                         graphs_->Get(config.graph));
  // Refused before it takes a tenant id (the session's own build would
  // refuse it too), so a bad admission leaves no gap in the ids.
  KGACC_RETURN_IF_ERROR(CheckEvaluationOptions(config.options));
  KGACC_RETURN_IF_ERROR(CheckAnnotatorSpec(config.annotator));

  std::lock_guard<std::mutex> lock(mutex_);
  if (config.id.empty()) {
    config.id = StrFormat(
        "t%llu", static_cast<unsigned long long>(next_tenant_id_++));
  }
  if (FindTenantLocked(config.id) != nullptr) {
    return Status::InvalidArgument(
        StrFormat("tenant '%s' already exists", config.id.c_str()));
  }

  FleetCache& fleet = graph_caches_[config.graph];  // map nodes are stable.
  auto tenant = std::make_unique<Tenant>();
  tenant->config = config;
  tenant->arrival = tenants_.size();
  tenant->cost = CostModel{.c1_seconds = config.annotator.c1_seconds,
                           .c2_seconds = config.annotator.c2_seconds};
  tenant->fleet = &fleet;
  tenant->cohort = StrFormat(
      "%s\x1f%s\x1f%llu", config.graph.c_str(), config.design.c_str(),
      static_cast<unsigned long long>(config.options.seed));
  tenant->observer.Bind(this, tenant.get());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  tenant->g_spent = registry.GetGauge(
      StrFormat("sched.tenant.%s.spent_seconds", config.id.c_str()));
  tenant->g_ci_width = registry.GetGauge(
      StrFormat("sched.tenant.%s.ci_width", config.id.c_str()));
  tenant->g_rounds = registry.GetGauge(
      StrFormat("sched.tenant.%s.rounds", config.id.c_str()));
  tenant->c_grants = registry.GetCounter(
      StrFormat("sched.tenant.%s.grants", config.id.c_str()));

  tenant->session = MakeTenantSession(config, std::move(dataset),
                                      /*replay_rounds=*/0, &tenant->observer);
  // A design that cannot run on this graph (e.g. kgeval on a sizes-only
  // population) is refused with the registry's message, not admitted.
  if (const Status error = tenant->session->GetInfo().error; !error.ok()) {
    return error;
  }
  // Make room before the new session takes a residency slot.
  EnforceResidencyLocked(/*keep=*/nullptr);

  tenants_.push_back(std::move(tenant));
  Metrics().tenants->Set(static_cast<double>(tenants_.size()));
  Metrics().residents->Set(static_cast<double>(CountResidentLocked()));
  loop_cv_.notify_all();
  return config.id;
}

Status CampaignScheduler::StopTenant(const std::string& id) {
  std::shared_ptr<ServeSession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant* tenant = FindTenantLocked(id);
    if (tenant == nullptr) {
      return Status::NotFound(StrFormat("no tenant '%s'", id.c_str()));
    }
    if (tenant->state == TenantState::kCompleted ||
        tenant->state == TenantState::kStopped ||
        tenant->state == TenantState::kFailed) {
      return Status::OK();  // already terminal.
    }
    tenant->stop_requested = true;
    if (tenant->state == TenantState::kEvicted) {
      tenant->state = TenantState::kStopped;
      return Status::OK();
    }
    session = tenant->session;
  }
  // Outside the table lock: stops the campaign at the next round boundary,
  // interrupting an in-flight grant instead of waiting it out.
  (void)session->Stop();
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant* tenant = FindTenantLocked(id);
  if (tenant != nullptr && tenant->state == TenantState::kResident) {
    tenant->state = TenantState::kStopped;
  }
  return Status::OK();
}

void CampaignScheduler::SetBudget(double budget_seconds) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    budget_seconds_ = budget_seconds;
    Metrics().budget->Set(budget_seconds_);
  }
  loop_cv_.notify_all();
}

double CampaignScheduler::BudgetSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_seconds_;
}

double CampaignScheduler::SpentSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spent_seconds_;
}

CampaignScheduler::Tenant* CampaignScheduler::FindTenantLocked(
    const std::string& id) const {
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    if (tenant->config.id == id) return tenant.get();
  }
  return nullptr;
}

bool CampaignScheduler::RunnableLocked(const Tenant& tenant) const {
  if (tenant.state != TenantState::kResident &&
      tenant.state != TenantState::kEvicted) {
    return false;
  }
  if (tenant.stop_requested) return false;
  if (tenant.config.quota_seconds > 0.0 &&
      tenant.spent >= tenant.config.quota_seconds) {
    return false;
  }
  return true;
}

bool CampaignScheduler::NextRoundFreeLocked(const Tenant& tenant) const {
  for (const std::unique_ptr<Tenant>& other : tenants_) {
    if (other.get() != &tenant && other->cohort == tenant.cohort &&
        other->rounds > tenant.rounds) {
      return true;
    }
  }
  return false;
}

CampaignScheduler::Tenant* CampaignScheduler::PickTenantLocked() const {
  // Once the budget is spent, only provably-free rounds are grantable: a
  // sample-cohort follower replays units whose labels the fleet already
  // bought, so its round charges exactly 0 and the one-round-overshoot
  // invariant holds. This terminates — a follower stops being one the
  // moment it catches its cohort leader.
  const bool over_budget = spent_seconds_ >= budget_seconds_;
  Tenant* best = nullptr;
  double best_score = 0.0;
  for (const std::unique_ptr<Tenant>& entry : tenants_) {
    Tenant* tenant = entry.get();
    if (!RunnableLocked(*tenant)) continue;
    if (over_budget && !NextRoundFreeLocked(*tenant)) continue;
    double score = 0.0;
    switch (options_.policy) {
      case Policy::kRoundRobin:
        // Least-recently-granted first (higher score = more overdue).
        score = -static_cast<double>(tenant->last_grant);
        break;
      case Policy::kWeightedFair:
        // Smallest weighted spend first.
        score = -(tenant->spent / tenant->config.weight);
        break;
      case Policy::kGreedyCi: {
        if (tenant->rounds == 0) {
          // Bootstrap: no telemetry yet, and the first round is the
          // cheapest information a campaign ever buys.
          score = std::numeric_limits<double>::infinity();
        } else {
          // Expected width reduction under the CLT model
          // width(r+1) ≈ width(r)·sqrt(r/(r+1)). If a sample-cohort partner
          // is strictly ahead, the next round's units are all replays of
          // labels the fleet already bought (charge 0): the reduction is
          // divided by an epsilon charge, so the free information is taken
          // first. Strictly positive either way, so no tenant starves.
          const bool next_free = NextRoundFreeLocked(*tenant);
          double cohort_members = 1.0;
          if (!next_free) {
            // A frontier round is paid once but narrows every runnable
            // cohort member — they replay it for free (identical
            // trajectories), so the fleet-level value is cohort-wide.
            for (const std::unique_ptr<Tenant>& other : tenants_) {
              if (other.get() != tenant && other->cohort == tenant->cohort &&
                  RunnableLocked(*other)) {
                cohort_members += 1.0;
              }
            }
          }
          const double r = static_cast<double>(tenant->rounds);
          const double shrink = 1.0 - std::sqrt(r / (r + 1.0));
          score = cohort_members * tenant->ci_width * shrink;
          if (next_free) score /= kChargeEpsilon;
        }
        break;
      }
    }
    // Deterministic tie-breaks: least-recently-granted, then arrival order.
    const bool better =
        best == nullptr || score > best_score ||
        (score == best_score &&
         (tenant->last_grant < best->last_grant ||
          (tenant->last_grant == best->last_grant &&
           tenant->arrival < best->arrival)));
    if (better) {
      best = tenant;
      best_score = score;
    }
  }
  return best;
}

uint64_t CampaignScheduler::CountResidentLocked() const {
  uint64_t count = 0;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    if (tenant->state == TenantState::kResident) count++;
  }
  return count;
}

void CampaignScheduler::EvictTenantLocked(Tenant& tenant) {
  if (tenant.state != TenantState::kResident) return;
  Result<CampaignSessionState> suspended = tenant.session->Suspend();
  if (!suspended.ok()) {
    // The campaign completed (or was stopped) before the eviction landed;
    // reconcile instead of evicting — there is nothing left to park.
    const ServeSession::Info info = tenant.session->GetInfo();
    if (info.state == ServeSession::State::kCompleted) {
      tenant.state = TenantState::kCompleted;
      tenant.converged = info.has_result && info.result.converged;
    } else if (info.state == ServeSession::State::kStopped) {
      tenant.state = info.error.ok() ? TenantState::kStopped
                                     : TenantState::kFailed;
    }
    return;
  }
  tenant.evicted_rounds = suspended->rounds_completed;
  tenant.session.reset();
  tenant.state = TenantState::kEvicted;
  tenant.evictions++;
  evictions_++;
  Metrics().evictions->Add(1);
  Metrics().residents->Set(static_cast<double>(CountResidentLocked()));
}

Status CampaignScheduler::ResumeTenantLocked(Tenant& tenant) {
  KGACC_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> dataset,
                         graphs_->Get(tenant.config.graph));

  // Make room for the resumed session before it takes its slot.
  EnforceResidencyLocked(/*keep=*/&tenant);

  // The session replays to the suspension point before it returns. Replayed
  // refs are already in the fleet cache, so the drained pending charge is
  // zero — a resume never double-charges the budget.
  tenant.session = MakeTenantSession(tenant.config, std::move(dataset),
                                     tenant.evicted_rounds, &tenant.observer);
  {
    std::lock_guard<std::mutex> charge(charge_mutex_);
    tenant.pending_charge = 0.0;
  }
  tenant.state = TenantState::kResident;
  Metrics().resumes->Add(1);
  Metrics().residents->Set(static_cast<double>(CountResidentLocked()));
  return Status::OK();
}

void CampaignScheduler::EnforceResidencyLocked(const Tenant* keep) {
  if (options_.max_resident_sessions == 0) return;
  while (CountResidentLocked() >= options_.max_resident_sessions) {
    // Least-recently-granted resident, arrival order as the tie-break.
    // Never the protected tenant, and never one whose round is in flight.
    Tenant* victim = nullptr;
    for (const std::unique_ptr<Tenant>& entry : tenants_) {
      Tenant* tenant = entry.get();
      if (tenant->state != TenantState::kResident) continue;
      if (tenant == keep || tenant == stepping_) continue;
      if (victim == nullptr || tenant->last_grant < victim->last_grant ||
          (tenant->last_grant == victim->last_grant &&
           tenant->arrival < victim->arrival)) {
        victim = tenant;
      }
    }
    if (victim == nullptr) return;  // nothing evictable; cap best-effort.
    const uint64_t before = CountResidentLocked();
    EvictTenantLocked(*victim);
    if (CountResidentLocked() == before) {
      // Suspend declined (completed/stopped race); the victim left the
      // resident pool through its terminal state or not at all — avoid
      // spinning either way.
      if (victim->state == TenantState::kResident) return;
    }
  }
}

bool CampaignScheduler::GrantNext() {
  std::lock_guard<std::mutex> grant(grant_mutex_);
  std::shared_ptr<ServeSession> session;
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto select_start = std::chrono::steady_clock::now();
    tenant = PickTenantLocked();
    const double select_seconds = SecondsSince(select_start);
    overhead_seconds_ += select_seconds;
    Metrics().select->RecordSeconds(select_seconds);
    if (tenant == nullptr) return false;
    if (tenant->state == TenantState::kEvicted) {
      const Status resumed = ResumeTenantLocked(*tenant);
      if (!resumed.ok()) {
        KGACC_LOG(Error) << "scheduler: resume of tenant '"
                         << tenant->config.id
                         << "' failed: " << resumed.ToString();
        tenant->state = TenantState::kFailed;
        return true;  // the tenant left the runnable pool; keep going.
      }
    }
    session = tenant->session;
    stepping_ = tenant;
  }

  // The round runs outside the table lock so status queries and stops stay
  // responsive; the grant mutex still serializes rounds fleet-wide.
  const Status stepped = session->Step(1);

  double charge = 0.0;
  {
    std::lock_guard<std::mutex> lock(charge_mutex_);
    charge = tenant->pending_charge;
    tenant->pending_charge = 0.0;
  }
  const ServeSession::Info info = session->GetInfo();

  std::lock_guard<std::mutex> lock(mutex_);
  stepping_ = nullptr;
  const auto account_start = std::chrono::steady_clock::now();
  const CampaignTrace granted = session->TraceAfter(tenant->rounds);
  for (const CampaignRound& round : granted.rounds) {
    tenant->rounds = round.round;
    tenant->ci_width = round.ci_upper - round.ci_lower;
  }
  tenant->spent += charge;
  spent_seconds_ += charge;
  grants_++;
  tenant->grants++;
  tenant->last_grant = grants_;
  for (const std::unique_ptr<Tenant>& other : tenants_) {
    if (other.get() != tenant && RunnableLocked(*other)) {
      other->wait_grants++;
    }
  }

  switch (info.state) {
    case ServeSession::State::kCompleted:
      tenant->state = TenantState::kCompleted;
      tenant->converged = info.has_result && info.result.converged;
      break;
    case ServeSession::State::kStopped:
      tenant->state = info.error.ok() ? TenantState::kStopped
                                      : TenantState::kFailed;
      break;
    case ServeSession::State::kSuspended:
    case ServeSession::State::kRunning:
      if (tenant->stop_requested) tenant->state = TenantState::kStopped;
      break;
  }
  (void)stepped;  // a stop racing the step surfaces through info above.

  const bool terminal = tenant->state != TenantState::kResident &&
                        tenant->state != TenantState::kEvicted;
  grant_log_.push_back(GrantRecord{.grant = grants_,
                                   .tenant = tenant->config.id,
                                   .round = tenant->rounds,
                                   .charged_seconds = charge,
                                   .spent_seconds = spent_seconds_,
                                   .ci_width = tenant->ci_width,
                                   .completed = terminal});
  Metrics().grants->Add(1);
  Metrics().spent->Set(spent_seconds_);
  tenant->c_grants->Add(1);
  UpdateTenantMetricsLocked(*tenant);
  EnforceResidencyLocked(/*keep=*/tenant);
  overhead_seconds_ += SecondsSince(account_start);
  return true;
}

uint64_t CampaignScheduler::RunUntilIdle() {
  uint64_t granted = 0;
  while (GrantNext()) granted++;
  return granted;
}

void CampaignScheduler::StartLoop() {
  std::lock_guard<std::mutex> lock(loop_mutex_);
  if (loop_running_) return;
  loop_stop_ = false;
  loop_running_ = true;
  loop_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(loop_mutex_);
    while (!loop_stop_) {
      lock.unlock();
      const bool granted = GrantNext();
      lock.lock();
      if (!granted && !loop_stop_) {
        // Idle: budget exhausted or no runnable tenant. Wake on AddTenant/
        // SetBudget, with a timeout as a belt against missed notifies.
        loop_cv_.wait_for(lock, std::chrono::milliseconds(50));
      }
    }
  });
}

void CampaignScheduler::StopLoop() {
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    if (!loop_running_) return;
    loop_stop_ = true;
  }
  loop_cv_.notify_all();
  if (loop_.joinable()) loop_.join();
  std::lock_guard<std::mutex> lock(loop_mutex_);
  loop_running_ = false;
}

TenantStatus CampaignScheduler::StatusLocked(const Tenant& tenant) const {
  TenantStatus status;
  status.id = tenant.config.id;
  status.graph = tenant.config.graph;
  status.design = tenant.config.design;
  status.state = tenant.state;
  status.rounds = tenant.rounds;
  status.grants = tenant.grants;
  status.wait_grants = tenant.wait_grants;
  status.spent_seconds = tenant.spent;
  status.ci_width = tenant.ci_width;
  status.converged = tenant.converged;
  status.weight = tenant.config.weight;
  status.quota_seconds = tenant.config.quota_seconds;
  status.evictions = tenant.evictions;
  return status;
}

void CampaignScheduler::UpdateTenantMetricsLocked(Tenant& tenant) {
  tenant.g_spent->Set(tenant.spent);
  tenant.g_ci_width->Set(tenant.ci_width);
  tenant.g_rounds->Set(static_cast<double>(tenant.rounds));
}

std::vector<TenantStatus> CampaignScheduler::Statuses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStatus> statuses;
  statuses.reserve(tenants_.size());
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    statuses.push_back(StatusLocked(*tenant));
  }
  return statuses;
}

Result<TenantStatus> CampaignScheduler::StatusFor(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Tenant* tenant = FindTenantLocked(id);
  if (tenant == nullptr) {
    return Status::NotFound(StrFormat("no tenant '%s'", id.c_str()));
  }
  return StatusLocked(*tenant);
}

std::shared_ptr<ServeSession> CampaignScheduler::SessionFor(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant* tenant = FindTenantLocked(id);
  if (tenant == nullptr) return nullptr;
  if (tenant->state == TenantState::kEvicted) {
    const Status resumed = ResumeTenantLocked(*tenant);
    if (!resumed.ok()) {
      KGACC_LOG(Error) << "scheduler: resume of tenant '" << id
                       << "' for access failed: " << resumed.ToString();
      return nullptr;
    }
  }
  return tenant->session;
}

std::vector<GrantRecord> CampaignScheduler::GrantLog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return grant_log_;
}

uint64_t CampaignScheduler::NumTenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

uint64_t CampaignScheduler::ResidentSessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CountResidentLocked();
}

uint64_t CampaignScheduler::Evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

double CampaignScheduler::OverheadSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overhead_seconds_;
}

}  // namespace kgacc::serve
