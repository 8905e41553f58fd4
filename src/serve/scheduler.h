#pragma once

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "labels/observed_annotator.h"
#include "serve/graph_store.h"
#include "serve/serve_session.h"
#include "serve/tenant.h"
#include "util/result.h"
#include "util/sharded_cache.h"

namespace kgacc::serve {

/// Fleet-level campaign scheduler: owns a global annotation-cost budget and
/// decides which waiting tenant session gets the next round — the paper's
/// cost/CI-width efficiency objective lifted across campaigns.
///
/// Policies:
///  - `greedy-ci`: grant the round with the best expected CI-width
///    reduction. The width model is the CLT shrink factor (width after r+1
///    rounds ≈ width·sqrt(r/(r+1))). A round whose sample-cohort partner
///    (same graph, design and sampling seed) is strictly ahead replays
///    labels the fleet already bought, so it costs nothing and is taken
///    first; any other round is paid once but narrows every runnable member
///    of its cohort, so its reduction counts once per member. Paid rounds
///    are not weighed by a predicted charge: on the fleet bench a per-tenant
///    mean-charge predictor moved the greedy/round-robin width ratio by
///    under 1%. Never-started tenants score +∞ (a bootstrap round is the
///    cheapest information there is). The score is always positive, so no
///    tenant starves.
///  - `round-robin`: least-recently-granted first.
///  - `weighted-fair`: smallest spent/weight first, honoring per-tenant
///    weights; quotas (all policies) hard-cap a tenant's spend.
///
/// Budget semantics: a grant is issued while total spent < budget; rounds are
/// charged after they run, so the fleet can overshoot by at most one round.
/// Provably-free rounds (a sample-cohort partner strictly ahead — the round
/// replays labels the fleet already bought, charging exactly 0) are still
/// granted after exhaustion: they consume no budget, so the overshoot
/// invariant holds. Budget 0 means no grants until `SetBudget`; the default
/// is unlimited.
///
/// Label reuse: co-tenant campaigns on the same graph share a per-graph
/// fleet `ShardedAnnotationCache` of already-purchased labels. Each session
/// keeps its *private* annotator (so per-tenant results stay bit-identical
/// to unscheduled runs); the fleet cache is budget accounting — a round is
/// charged only for clusters/triples no co-tenant has bought yet (Eq 4 over
/// the novel part). A resumed session's replayed rounds re-observe refs that
/// are already in the fleet set, so replay is free by construction.
///
/// Determinism: with a fixed policy, seed, and tenant arrival script, the
/// grant sequence (GrantLog) and every tenant's final EvaluationResult are
/// bit-identical across runs and across evict/resume cycles. Everything the
/// policies read (rounds, CI widths, spend, arrival order, last-grant index)
/// is itself deterministic, eviction decisions never enter the grant log,
/// and wall-clock feeds metrics only.
///
/// Threading: GrantNext is serialized on a grant mutex (one round in flight
/// fleet-wide — the budget is a single annotator pool); the tenant table is
/// guarded separately so Statuses/StopTenant/SetBudget stay responsive while
/// a round runs. A grant steps its tenant's session on the granting thread;
/// StopTenant interrupts it at the next round boundary.
class CampaignScheduler {
 public:
  enum class Policy { kGreedyCi, kRoundRobin, kWeightedFair };
  static const char* PolicyName(Policy policy);
  /// Parses "greedy-ci" / "round-robin" / "weighted-fair".
  static Result<Policy> ParsePolicy(const std::string& name);

  struct Options {
    Policy policy = Policy::kGreedyCi;
    /// Total annotation seconds the fleet may spend (Eq 4, after reuse).
    double budget_seconds = std::numeric_limits<double>::infinity();
    /// Max simultaneously resident (campaign-holding) running sessions;
    /// the least-recently-granted resident is evicted (suspended, keeping
    /// only its round count) when exceeded. 0 = unlimited.
    uint64_t max_resident_sessions = 0;
  };

  /// `graphs` is borrowed and must outlive the scheduler.
  CampaignScheduler(GraphStore* graphs, Options options);

  /// Stops the drive loop and destroys all resident sessions.
  ~CampaignScheduler();

  /// Admits a tenant (id auto-assigned as "t<n>" when empty) with its
  /// session built and waiting for round 1. Fails on unknown graph/design,
  /// a design that cannot run on the graph, duplicate id, or weight <= 0.
  Result<std::string> AddTenant(TenantConfig config);

  /// Stops a tenant's campaign — including one whose round is currently in
  /// flight (the session stops at the next round boundary). Terminal-state
  /// tenants are a benign no-op.
  Status StopTenant(const std::string& id);

  void SetBudget(double budget_seconds);
  double BudgetSeconds() const;
  double SpentSeconds() const;
  Policy policy() const { return options_.policy; }

  /// Picks one runnable tenant under the configured policy, runs exactly one
  /// round of its campaign, and charges the novel part against the budget.
  /// Returns false when nothing can be granted (budget exhausted, or no
  /// runnable tenant).
  bool GrantNext();

  /// Grants until GrantNext returns false; returns the number of grants.
  uint64_t RunUntilIdle();

  /// Background drive loop for the daemon: grants whenever budget and
  /// runnable tenants exist, sleeps otherwise, wakes on AddTenant/SetBudget.
  void StartLoop();
  void StopLoop();

  /// All tenants' scheduling status, in arrival order.
  std::vector<TenantStatus> Statuses() const;
  Result<TenantStatus> StatusFor(const std::string& id) const;

  /// The tenant's live session, resuming it first if it was evicted
  /// (deterministic replay). Null for unknown ids.
  std::shared_ptr<ServeSession> SessionFor(const std::string& id);

  /// The grant sequence so far — the determinism artifact. Render with
  /// GrantRecord::ToLine for byte-exact comparison.
  std::vector<GrantRecord> GrantLog() const;

  uint64_t NumTenants() const;
  uint64_t ResidentSessions() const;
  uint64_t Evictions() const;

  /// Cumulative wall-clock spent inside policy selection + charge accounting
  /// (the scheduler's own overhead, excluding the campaign rounds it drives).
  /// Metrics-only: never feeds back into scheduling decisions.
  double OverheadSeconds() const;

 private:
  struct FleetCache;
  struct Tenant;

  /// Per-tenant AnnotationObserver: routes the session's annotated refs into
  /// the graph's fleet cache and accrues the novel charge.
  class ChargeObserver : public AnnotationObserver {
   public:
    void Bind(CampaignScheduler* scheduler, Tenant* tenant) {
      scheduler_ = scheduler;
      tenant_ = tenant;
    }
    void OnAnnotate(std::span<const TripleRef> refs) override;

   private:
    CampaignScheduler* scheduler_ = nullptr;
    Tenant* tenant_ = nullptr;
  };

  Tenant* FindTenantLocked(const std::string& id) const;
  /// True when the tenant's next round is provably free: a sample-cohort
  /// partner (same graph, design, sampling seed) is strictly ahead, so the
  /// round replays labels the fleet already bought.
  bool NextRoundFreeLocked(const Tenant& tenant) const;
  Tenant* PickTenantLocked() const;
  bool RunnableLocked(const Tenant& tenant) const;
  TenantStatus StatusLocked(const Tenant& tenant) const;
  void UpdateTenantMetricsLocked(Tenant& tenant);

  /// Suspends the tenant's session and frees it, keeping its round count.
  /// No-op if the session completed in the meantime (nothing left to
  /// evict).
  void EvictTenantLocked(Tenant& tenant);
  /// Rebuilds an evicted tenant's session from its config and waits for
  /// the deterministic replay of its rounds to reach the suspension point.
  /// Evicts another resident first if the residency cap requires it.
  Status ResumeTenantLocked(Tenant& tenant);
  /// Evicts least-recently-granted residents until the cap holds, never
  /// touching `keep`.
  void EnforceResidencyLocked(const Tenant* keep);
  uint64_t CountResidentLocked() const;

  GraphStore* graphs_;
  const Options options_;

  std::mutex grant_mutex_;  ///< serializes GrantNext end to end.

  mutable std::mutex mutex_;  ///< tenant table, budget, grant log, caches.
  std::vector<std::unique_ptr<Tenant>> tenants_;  ///< arrival order.
  std::map<std::string, FleetCache> graph_caches_;
  double budget_seconds_;
  double spent_seconds_ = 0.0;
  uint64_t grants_ = 0;
  uint64_t evictions_ = 0;
  std::vector<GrantRecord> grant_log_;
  uint64_t next_tenant_id_ = 1;
  double overhead_seconds_ = 0.0;
  Tenant* stepping_ = nullptr;  ///< tenant whose round is in flight; never
                                ///< evicted out from under its grant.

  std::mutex charge_mutex_;  ///< pending per-tenant charges (observers).

  std::thread loop_;
  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  bool loop_stop_ = false;
  bool loop_running_ = false;
};

}  // namespace kgacc::serve
