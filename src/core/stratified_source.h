#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "estimators/estimators.h"
#include "kg/kg_view.h"
#include "labels/truth_oracle.h"
#include "sampling/srs.h"
#include "sampling/stratum_index.h"
#include "stats/running_stats.h"
#include "stats/stratification.h"

namespace kgacc {

/// The stratified-TWCS design (Section 5.3, Eq 13) as one engine plug-in:
/// a combined UnitSampler + UnitEstimator, because batch allocation across
/// strata (Neyman, on the running per-stratum standard deviations) depends on
/// the labels fed back through the estimator side.
///
/// Sampling protocol: the first NextBatch() is the seed round — every stratum
/// receives min_stratum_units draws so its variance estimate can be trusted;
/// every later NextBatch(n) splits n across strata by Neyman allocation.
/// Units carry their stratum index in `tag`. Every stratum draws through one
/// StratumIndex over the view's clusters, so unit clusters are the view's
/// cluster ids (annotator coordinates).
class StratifiedTwcsSource : public UnitSampler, public UnitEstimator {
 public:
  /// Draws through `index`, whose view must outlive the source; `weights`
  /// holds W_h of each of its strata.
  StratifiedTwcsSource(StratumIndex index, std::vector<double> weights,
                       uint64_t m, uint64_t min_stratum_units);

  /// Over explicit `strata` of `view`, indexed from their ids.
  StratifiedTwcsSource(const KgView& view, const Strata& strata, uint64_t m,
                       uint64_t min_stratum_units)
      : StratifiedTwcsSource(
            StratumIndex(view, strata.stratum_of, strata.NumStrata()),
            strata.weights, m, min_stratum_units) {}

  // UnitSampler.
  std::vector<SampleUnit> NextBatch(uint64_t n, Rng& rng) override;

  /// Allocation routes the previous rounds' labels (per-stratum variances)
  /// into the next draw, so a batch drawn before the in-flight round's
  /// labels arrive would allocate differently than the sequential schedule.
  bool PrefetchSafe() const override { return false; }

  // UnitEstimator.
  void AddUnit(const SampleUnit& unit, const uint8_t* labels) override;
  Estimate Current() const override { return combined_.Current(); }

  size_t NumStrata() const { return stats_.size(); }

 private:
  /// Draws `units` TWCS units inside stratum `h`: a size-weighted cluster of
  /// h, then an SRS of min(M_i, m) of its triples.
  void DrawInto(std::vector<SampleUnit>* out, size_t h, uint64_t units,
                Rng& rng);

  const KgView& view_;
  StratumIndex index_;
  uint64_t m_;
  std::vector<RunningStats> stats_;  ///< per-stratum per-draw accuracies.
  std::vector<double> weights_;
  StratifiedEstimator combined_;
  uint64_t min_stratum_units_;
  bool seeded_ = false;
};

/// "Size Stratification": cum-sqrt(F) boundaries over cluster sizes, read
/// straight from the view's TripleOffsets() column (StratifySizes).
Strata SizeStrata(const KgView& view, int num_strata);

/// "Oracle Stratification": strata on realized per-cluster accuracy — the
/// unattainable-in-practice lower bound of Table 7.
Strata OracleStrata(const KgView& view, const TruthOracle& oracle,
                    int num_strata);

/// The stratified-TWCS campaign ("TWCS+strat") drawing through `index`,
/// with W_h = `weights[h]`, ready for its first Step(), with second-stage
/// size ResolveSecondStageSize(options, annotator's cost model, no stats).
/// It borrows the index's view and `annotator`. The registry's "twcs+strat"
/// passes a size-strata index, cut and built in two passes over one column.
std::unique_ptr<Campaign> MakeStratifiedTwcsCampaign(
    StratumIndex index, std::vector<double> weights, Annotator* annotator,
    const EvaluationOptions& options);

/// The same campaign over explicit `strata` of `column`'s view, indexed
/// from their ids.
std::unique_ptr<Campaign> MakeStratifiedTwcsCampaign(
    TriplePrefixIndex column, Strata strata, Annotator* annotator,
    const EvaluationOptions& options);

}  // namespace kgacc
