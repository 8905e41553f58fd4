#pragma once

#include <cstdint>
#include <memory>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "kg/kg_view.h"
#include "labels/annotator.h"
#include "stats/estimate.h"
#include "util/rng.h"

namespace kgacc {

/// Incremental evaluation of an evolving KG (Section 6), the one interface
/// of RS (reservoir, Algorithm 1) and SS (stratified, Algorithm 2). One
/// evaluator owns one evolving campaign: Initialize() evaluates the base
/// graph (the whole current population), then each ApplyUpdate() evaluates
/// one already-appended update batch. Each step is its own EvaluationResult
/// whose cost fields (`ledger`, `annotation_seconds`) cover only that step's
/// new annotation effort — the whole point of incremental evaluation is
/// that retained samples cost nothing.
///
/// A method supplies the two campaign factories and the read path; both
/// steps run those campaigns through RunCampaign with
/// EvaluationOptions::control, like every registry design, and per-round
/// telemetry (EvaluationOptions::telemetry) flows from them the same way.
class IncrementalEvaluator {
 public:
  /// `population` is the evolving cluster substrate; it and `annotator`
  /// must outlive the evaluator. The population only grows (append-only),
  /// each update batch appended before its ApplyUpdate call. The methods
  /// inherit this constructor.
  IncrementalEvaluator(const KgView* population, Annotator* annotator,
                       EvaluationOptions options);

  virtual ~IncrementalEvaluator() = default;

  // The step campaigns borrow the evaluator, so it stays where it was made.
  IncrementalEvaluator(const IncrementalEvaluator&) = delete;
  IncrementalEvaluator& operator=(const IncrementalEvaluator&) = delete;

  /// Evaluates all clusters currently in the population (the base graph).
  EvaluationResult Initialize();

  /// Evaluates the update batch [first_new_cluster, +count), already
  /// appended to the population, re-establishing the MoE target. The batch
  /// must start at the first cluster not yet evaluated (it aborts otherwise:
  /// a re-applied or overlapping batch would count clusters twice). An
  /// empty batch (count 0) is a re-evaluation: it annotates nothing while
  /// the current estimate still meets the target.
  EvaluationResult ApplyUpdate(uint64_t first_new_cluster, uint64_t count);

  /// The campaigns Initialize and ApplyUpdate run (same preconditions);
  /// they borrow this evaluator. InitializeCampaign is the registry's
  /// "rs"/"ss" design.
  virtual std::unique_ptr<Campaign> InitializeCampaign() = 0;
  virtual std::unique_ptr<Campaign> UpdateCampaign(uint64_t first_new_cluster,
                                                   uint64_t count) = 0;

  /// The current estimate without sampling anything new — the read path
  /// for dashboards and freshly restored evaluators.
  virtual Estimate CurrentEstimate() const = 0;

 protected:
  const KgView* population_;
  Annotator* annotator_;
  EvaluationOptions options_;
  /// The method's sampling stream, seeded by options.seed and saved with
  /// the method's checkpoint (core/state_io.h).
  Rng rng_;
  uint64_t m_ = 0;  ///< second-stage sample size (ResolveSecondStageSize).
};

}  // namespace kgacc
