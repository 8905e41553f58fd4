#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/incremental.h"
#include "kg/subset_view.h"
#include "sampling/unit_samplers.h"
#include "stats/running_stats.h"
#include "util/status.h"

namespace kgacc {

/// Stratified Incremental Evaluation — the paper's SS method (Section 6.2,
/// Algorithm 2). The base graph G and every update batch Delta_i form
/// independent strata; evaluation results of old strata are fully reused
/// (their estimates and variances are frozen), and each new batch only
/// requires TWCS sampling inside its own stratum until the *combined*
/// stratified estimate (Eq 13, with weights W_h = |stratum|/|G+Delta|)
/// meets the MoE target.
///
/// Faithful to Algorithm 2, the update loop samples only the newest
/// stratum: old strata are never re-sampled, so a biased or under-budgeted
/// base stays as it was.
class StratifiedIncrementalEvaluator final : public IncrementalEvaluator {
 public:
  using IncrementalEvaluator::IncrementalEvaluator;

  /// Initialize evaluates the base graph (all clusters currently in the
  /// population) as stratum 0; an update registers the clusters
  /// [first_new_cluster, +count) as a new stratum, which must start where the
  /// last one ends (an empty update adds none). The newest stratum gets
  /// its minimum draws when the campaign is made; each step then
  /// re-estimates and, unless it stops, samples one more batch in it.
  std::unique_ptr<Campaign> InitializeCampaign() override;
  std::unique_ptr<Campaign> UpdateCampaign(uint64_t first_new_cluster,
                                           uint64_t count) override;

  uint64_t NumStrata() const { return strata_.size(); }

  /// The current combined estimate (Eq 13).
  Estimate CurrentEstimate() const override { return Combined(); }

  /// Serializable view of one stratum's evaluation state (see core/state_io.h).
  struct StratumSnapshot {
    uint64_t first_cluster = 0;
    uint64_t count = 0;
    uint64_t triples = 0;
    uint64_t stat_count = 0;
    double stat_mean = 0.0;
    double stat_m2 = 0.0;
  };

  /// The full evaluation state: the strata and the sampling stream.
  struct StratifiedSnapshot {
    std::array<uint64_t, 4> rng_state{};
    std::vector<StratumSnapshot> strata;
  };

  /// Captures the full evaluation state; requires Initialize() was called.
  StratifiedSnapshot Snapshot() const;

  /// Restores a snapshot into this never-initialized evaluator. Validates
  /// every stratum against the current population (the strata must tile
  /// [0, end) in order, and range bounds and triple masses must match the
  /// state) and fails without side effects visible to subsequent
  /// Initialize() calls on mismatch. The sampling stream resumes where it
  /// was saved, so later updates are bit-identical to the uninterrupted
  /// run's.
  Status Restore(const StratifiedSnapshot& snapshot);

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

  std::vector<StratumState> strata_;
  uint64_t total_triples_ = 0;
};

}  // namespace kgacc
