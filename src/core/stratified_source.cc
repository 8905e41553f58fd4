#include "core/stratified_source.h"

#include "estimators/unit_estimators.h"
#include "stats/allocation.h"
#include "util/logging.h"

namespace kgacc {

StratifiedTwcsSource::StratifiedTwcsSource(const KgView& view,
                                           const Strata& strata, uint64_t m,
                                           uint64_t min_stratum_units)
    : weights_(strata.weights), min_stratum_units_(min_stratum_units) {
  KGACC_CHECK(strata.NumStrata() >= 1) << "need at least one stratum";
  strata_.reserve(strata.NumStrata());
  for (size_t h = 0; h < strata.NumStrata(); ++h) {
    StratumState state;
    state.view = std::make_unique<SubsetView>(view, strata.members[h]);
    state.sampler = std::make_unique<TwcsUnitSampler>(*state.view, m);
    strata_.push_back(std::move(state));
    combined_.AddStratum(strata.weights[h]);
  }
}

void StratifiedTwcsSource::DrawInto(std::vector<SampleUnit>* out, size_t h,
                                    uint64_t units, Rng& rng) {
  StratumState& state = strata_[h];
  for (SampleUnit& unit : state.sampler->NextBatch(units, rng)) {
    unit.cluster = state.view->ToParent(unit.cluster);
    unit.tag = h;
    out->push_back(std::move(unit));
  }
}

std::vector<SampleUnit> StratifiedTwcsSource::NextBatch(uint64_t n, Rng& rng) {
  std::vector<SampleUnit> batch;
  if (!seeded_) {
    // Seed round: every stratum gets enough draws for a variance estimate.
    seeded_ = true;
    for (size_t h = 0; h < strata_.size(); ++h) {
      DrawInto(&batch, h, min_stratum_units_, rng);
    }
    return batch;
  }
  // Neyman allocation of the batch using running stddevs.
  std::vector<double> stddevs(strata_.size());
  for (size_t h = 0; h < strata_.size(); ++h) {
    stddevs[h] = strata_[h].stats.SampleStdDev();
  }
  const std::vector<uint64_t> allocation =
      NeymanAllocation(weights_, stddevs, n, /*min_per_stratum=*/0);
  for (size_t h = 0; h < strata_.size(); ++h) {
    if (allocation[h] > 0) DrawInto(&batch, h, allocation[h], rng);
  }
  return batch;
}

void StratifiedTwcsSource::AddUnit(const SampleUnit& unit,
                                   const uint8_t* labels) {
  if (unit.offsets.empty()) return;  // zero-size cluster: no information.
  const size_t h = static_cast<size_t>(unit.tag);
  KGACC_CHECK(h < strata_.size());
  const uint64_t correct = CountCorrect(unit, labels);
  StratumState& state = strata_[h];
  state.stats.Add(static_cast<double>(correct) /
                  static_cast<double>(unit.offsets.size()));
  Estimate estimate;
  estimate.mean = state.stats.Mean();
  estimate.variance_of_mean = state.stats.VarianceOfMean();
  estimate.num_units = state.stats.Count();
  combined_.UpdateStratum(h, estimate);
}

}  // namespace kgacc
