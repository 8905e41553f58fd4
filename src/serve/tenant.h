#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "labels/annotator_spec.h"

namespace kgacc::serve {

/// One tenant of the multi-tenant campaign scheduler: a campaign (graph +
/// design + options + annotator spec) plus its share of the fleet-level
/// annotation budget. The campaign half is exactly a ServeSession config;
/// the scheduling half is the weight/quota the fair policies consume.
struct TenantConfig {
  std::string id;     ///< unique tenant/session id; empty = auto-assigned.
  std::string graph;  ///< graph name in the serve GraphStore.
  std::string design; ///< registry design name ("twcs", "rs", ...).
  EvaluationOptions options;  ///< telemetry/control must be null.
  AnnotatorSpec annotator;

  /// Relative share under the weighted-fair policy: the scheduler keeps
  /// each tenant's (budget spent / weight) balanced. Ignored by the other
  /// policies. Must be > 0.
  double weight = 1.0;

  /// Hard per-tenant cap on fleet-charged annotation seconds; a tenant at
  /// or over its quota is never granted another round (it may overshoot by
  /// at most the final round, since rounds are charged after they run).
  /// 0 = no quota.
  double quota_seconds = 0.0;
};

/// Where a tenant's campaign currently lives.
enum class TenantState {
  kResident,   ///< ServeSession alive, waiting between rounds.
  kEvicted,    ///< session freed; the scheduler keeps its round count and
               ///< rebuilds it from its config by deterministic replay
               ///< before its next grant.
  kCompleted,  ///< campaign reached its own stopping decision.
  kStopped,    ///< stopped by request; never scheduled again.
  kFailed,     ///< design reported an error; never scheduled again.
};

const char* TenantStateName(TenantState state);

/// Point-in-time scheduling status of one tenant (the `tenant-status`
/// protocol op and the fleet bench artifact render these).
struct TenantStatus {
  std::string id;
  std::string graph;
  std::string design;
  TenantState state = TenantState::kResident;
  uint64_t rounds = 0;        ///< campaign rounds completed so far.
  uint64_t grants = 0;        ///< scheduler grants received.
  uint64_t wait_grants = 0;   ///< cumulative grants given to other tenants
                              ///< between this tenant's own grants.
  double spent_seconds = 0.0; ///< fleet-charged annotation seconds (after
                              ///< cross-campaign label reuse).
  double ci_width = 1.0;      ///< last round's ci_upper - ci_lower.
  bool converged = false;
  double weight = 1.0;
  double quota_seconds = 0.0;
  uint64_t evictions = 0;     ///< times this tenant was evicted.
};

/// One scheduler decision: which tenant got the round, what the round was
/// charged against the shared budget (after label reuse), and where the
/// tenant's CI stood afterwards. The sequence of these records is the
/// scheduler's determinism artifact: with a fixed policy, seed and arrival
/// script it is bit-identical across runs and across evict/resume cycles
/// (ToLine renders doubles with %.17g so the byte-compare is exact).
struct GrantRecord {
  uint64_t grant = 0;   ///< 1-based grant index.
  std::string tenant;
  uint64_t round = 0;   ///< tenant's completed-round count after the grant.
  double charged_seconds = 0.0;  ///< fleet charge for this grant.
  double spent_seconds = 0.0;    ///< cumulative fleet budget spent after.
  double ci_width = 1.0;         ///< tenant CI width after the grant.
  bool completed = false;        ///< tenant finished (or failed) on this grant.

  std::string ToLine() const;
};

}  // namespace kgacc::serve
