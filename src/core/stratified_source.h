#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "estimators/estimators.h"
#include "kg/kg_view.h"
#include "kg/subset_view.h"
#include "sampling/unit_samplers.h"
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
/// Units carry their stratum index in `tag`, and their `cluster` is already
/// translated to the parent view's cluster id (annotator coordinates).
class StratifiedTwcsSource : public UnitSampler, public UnitEstimator {
 public:
  /// `view` is borrowed and must outlive the source. `strata` is copied.
  StratifiedTwcsSource(const KgView& view, const Strata& strata, uint64_t m,
                       uint64_t min_stratum_units);

  // UnitSampler.
  std::vector<SampleUnit> NextBatch(uint64_t n, Rng& rng) override;

  /// Allocation routes the previous rounds' labels (per-stratum variances)
  /// into the next draw, so a batch drawn before the in-flight round's
  /// labels arrive would allocate differently than the sequential schedule.
  bool PrefetchSafe() const override { return false; }

  // UnitEstimator.
  void AddUnit(const SampleUnit& unit, const uint8_t* labels) override;
  Estimate Current() const override { return combined_.Current(); }

  size_t NumStrata() const { return strata_.size(); }

 private:
  struct StratumState {
    std::unique_ptr<SubsetView> view;
    std::unique_ptr<TwcsUnitSampler> sampler;
    RunningStats stats;
  };

  /// Draws `units` TWCS units inside stratum `h`, translated to parent ids.
  void DrawInto(std::vector<SampleUnit>* out, size_t h, uint64_t units,
                Rng& rng);

  std::vector<StratumState> strata_;
  std::vector<double> weights_;
  StratifiedEstimator combined_;
  uint64_t min_stratum_units_;
  bool seeded_ = false;
};

}  // namespace kgacc
