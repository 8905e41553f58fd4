#pragma once

#include <cstdint>
#include <memory>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "core/optimal_m.h"
#include "kg/kg_view.h"
#include "labels/annotator.h"

namespace kgacc {

/// The iterative Static Evaluation procedure of the framework (Fig 2):
/// Sample Collector -> Sample Pool -> Estimation -> Quality Control, looping
/// until the estimate's margin of error satisfies the user target. Each
/// *Campaign() factory is a thin configuration of the shared EngineCampaign
/// (core/engine.h) — batched annotation and stopping semantics live there —
/// and each Evaluate* call runs that campaign to completion. One evaluator
/// instance runs one campaign per Evaluate* call; use a fresh
/// SimulatedAnnotator per campaign so annotation caching does not leak cost
/// savings across designs.
///
/// All four designs of Section 5 are provided: SRS (Eq 5), RCS (Eq 7),
/// WCS (Eq 8) and TWCS (Eq 9). TWCS is the paper's recommended design.
class StaticEvaluator {
 public:
  StaticEvaluator(const KgView& view, Annotator* annotator,
                  EvaluationOptions options);

  /// Supplies exact population stats so that TWCS auto-m (options.m == 0)
  /// can run the Eq 12 search instead of defaulting to m = 5. Borrowed
  /// pointer; pass nullptr to clear.
  void SetPopulationStatsForAutoM(const ClusterPopulationStats* stats);

  /// Simple random sampling of triples.
  EvaluationResult EvaluateSrs();

  /// Random (uniform, without replacement) cluster sampling.
  EvaluationResult EvaluateRcs();

  /// Weighted (size-proportional, with replacement) cluster sampling.
  EvaluationResult EvaluateWcs();

  /// Two-stage weighted cluster sampling with second-stage size
  /// options.m (auto-selected when 0).
  EvaluationResult EvaluateTwcs();

  /// The campaigns the Evaluate* calls run. Each owns its sampler and
  /// estimator and borrows the view and annotator, not the evaluator.
  std::unique_ptr<Campaign> SrsCampaign() const;
  std::unique_ptr<Campaign> RcsCampaign() const;
  std::unique_ptr<Campaign> WcsCampaign() const;
  std::unique_ptr<Campaign> TwcsCampaign() const;

  /// The m that EvaluateTwcs() will use (resolves auto-m).
  uint64_t ResolveSecondStageSize() const;

 private:
  const KgView& view_;
  Annotator* annotator_;
  EvaluationOptions options_;
  const ClusterPopulationStats* auto_m_stats_ = nullptr;
};

}  // namespace kgacc
