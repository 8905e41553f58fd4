#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "core/incremental.h"
#include "kg/kg_view.h"
#include "kg/subset_view.h"
#include "labels/annotator.h"
#include "sampling/unit_samplers.h"
#include "stats/running_stats.h"
#include "util/status.h"
#include "util/rng.h"

namespace kgacc {

/// Stratified Incremental Evaluation — the paper's SS method (Section 6.2,
/// Algorithm 2). The base graph G and every update batch Delta_i form
/// independent strata; evaluation results of old strata are fully reused
/// (their estimates and variances are frozen), and each new batch only
/// requires TWCS sampling inside its own stratum until the *combined*
/// stratified estimate (Eq 13, with weights W_h = |stratum|/|G+Delta|)
/// meets the MoE target.
///
/// Faithful to Algorithm 2, the update loop samples only the newest stratum.
/// `allow_top_up` adds an engineering safeguard the paper does not have:
/// when the newest stratum alone cannot reach the target (e.g. a tiny Delta
/// after a borderline base evaluation), extra draws go to the highest
/// W_h^2 Var_h stratum. Benches leave it off to match the paper.
class StratifiedIncrementalEvaluator {
 public:
  StratifiedIncrementalEvaluator(const KgView* population,
                                 Annotator* annotator,
                                 EvaluationOptions options,
                                 bool allow_top_up = false);

  /// Evaluates the base graph (all clusters currently in the population) as
  /// stratum 0.
  IncrementalUpdateReport Initialize();

  /// Registers the clusters [first_new_cluster, ...+count) — one update
  /// batch, already appended to the population — as a new stratum and
  /// re-establishes the MoE target.
  IncrementalUpdateReport ApplyUpdate(uint64_t first_new_cluster,
                                      uint64_t count);

  /// The campaigns Initialize and ApplyUpdate run (same preconditions). The
  /// newest stratum gets its minimum draws when the campaign is made; each
  /// step then re-estimates and, unless it stops, samples one more batch.
  /// They borrow this evaluator.
  std::unique_ptr<Campaign> InitializeCampaign();
  std::unique_ptr<Campaign> UpdateCampaign(uint64_t first_new_cluster,
                                           uint64_t count);

  uint64_t NumStrata() const { return strata_.size(); }

  /// The current combined estimate (Eq 13) without sampling anything —
  /// the read path for dashboards and freshly restored evaluators.
  Estimate CurrentEstimate() const { return Combined(); }

  /// Serializable view of one stratum's evaluation state (see core/state_io.h).
  struct StratumSnapshot {
    uint64_t first_cluster = 0;
    uint64_t count = 0;
    uint64_t triples = 0;
    uint64_t stat_count = 0;
    double stat_mean = 0.0;
    double stat_m2 = 0.0;
  };

  /// Captures the full evaluation state; requires Initialize() was called.
  std::vector<StratumSnapshot> Snapshot() const;

  /// Restores a snapshot into this never-initialized evaluator. Validates
  /// every stratum against the current population (range bounds and triple
  /// masses must match the state) and fails without side effects visible to
  /// subsequent Initialize() calls on mismatch.
  Status Restore(const std::vector<StratumSnapshot>& snapshot);

 private:
  struct StratumState {
    std::unique_ptr<SubsetView> view;
    std::unique_ptr<TwcsUnitSampler> sampler;
    RunningStats stats;          ///< per-draw second-stage accuracies.
    uint64_t triples = 0;        ///< stratum triple mass (fixed at creation).
    uint64_t first_cluster = 0;  ///< population range of this stratum.
    uint64_t count = 0;
  };

  void AddStratum(uint64_t first_cluster, uint64_t count);

  /// Draws `units` TWCS samples inside stratum `h`.
  void SampleStratum(size_t h, uint64_t units);

  /// Combined Eq 13 estimate over all strata.
  Estimate Combined() const;

  /// Drives batches into the `active` stratum until converged/budget.
  class DriveToTarget;

  const KgView* population_;
  Annotator* annotator_;
  EvaluationOptions options_;
  bool allow_top_up_;
  Rng rng_;
  uint64_t m_;

  std::vector<StratumState> strata_;
  uint64_t total_triples_ = 0;
};

}  // namespace kgacc
