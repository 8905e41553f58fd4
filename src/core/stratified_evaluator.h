#pragma once

#include <cstdint>
#include <memory>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "core/optimal_m.h"
#include "core/stratified_source.h"
#include "kg/kg_view.h"
#include "labels/annotator.h"
#include "labels/truth_oracle.h"
#include "stats/stratification.h"

namespace kgacc {

/// Stratified TWCS (paper Section 5.3, Eq 13): entity clusters are
/// partitioned into strata, TWCS runs inside each stratum, and the combined
/// estimator sum_h W_h mu_hat_h enjoys reduced variance when strata are
/// homogeneous in accuracy. Batch allocation across strata uses Neyman
/// allocation on the running per-stratum standard deviations.
class StratifiedTwcsEvaluator {
 public:
  StratifiedTwcsEvaluator(const KgView& view, Annotator* annotator,
                          EvaluationOptions options);

  /// Runs the iterative campaign over the given strata.
  EvaluationResult Evaluate(const Strata& strata);

  /// The campaign Evaluate runs; it owns the strata.
  std::unique_ptr<Campaign> MakeCampaign(Strata strata) const;

  /// The campaign over SizeStrata(view, num_strata): the strata and the
  /// draws read one triple-offset column, the view's or one built for both.
  std::unique_ptr<Campaign> MakeSizeStratifiedCampaign(int num_strata) const;

  /// "Size Stratification": cum-sqrt(F) boundaries over cluster sizes, read
  /// straight from the view's TripleOffsets() column (StratifySizes).
  static Strata SizeStrata(const KgView& view, int num_strata);

  /// "Oracle Stratification": strata on realized per-cluster accuracy —
  /// the unattainable-in-practice lower bound of Table 7.
  static Strata OracleStrata(const KgView& view, const TruthOracle& oracle,
                             int num_strata);

  /// Supplies exact population stats so that auto-m (options.m == 0) can run
  /// the Eq 12 search instead of defaulting to m = 5. Borrowed pointer; pass
  /// nullptr to clear.
  void SetPopulationStatsForAutoM(const ClusterPopulationStats* stats);

  /// The second-stage size Evaluate() will use (shared auto-m resolution).
  uint64_t ResolveSecondStageSize() const;

 private:
  /// The engine campaign around `source`, which samples and estimates.
  std::unique_ptr<Campaign> MakeEngineCampaign(
      std::shared_ptr<StratifiedTwcsSource> source) const;

  const KgView& view_;
  Annotator* annotator_;
  EvaluationOptions options_;
  const ClusterPopulationStats* auto_m_stats_ = nullptr;
};

}  // namespace kgacc
