#include "core/stratified_source.h"

#include <utility>

#include "core/optimal_m.h"
#include "estimators/unit_estimators.h"
#include "sampling/unit_samplers.h"
#include "stats/allocation.h"
#include "util/logging.h"

namespace kgacc {

StratifiedTwcsSource::StratifiedTwcsSource(StratumIndex index,
                                           std::vector<double> weights,
                                           uint64_t m,
                                           uint64_t min_stratum_units)
    : view_(index.view()),
      index_(std::move(index)),
      m_(m),
      stats_(index_.NumStrata()),
      weights_(std::move(weights)),
      min_stratum_units_(min_stratum_units) {
  KGACC_CHECK(weights_.size() >= 1) << "need at least one stratum";
  KGACC_CHECK(weights_.size() == index_.NumStrata())
      << "one weight per stratum";
  KGACC_CHECK(m_ >= 1) << "TWCS second-stage size m must be >= 1";
  for (double weight : weights_) combined_.AddStratum(weight);
}

void StratifiedTwcsSource::DrawInto(std::vector<SampleUnit>* out, size_t h,
                                    uint64_t units, Rng& rng) {
  for (uint64_t i = 0; i < units; ++i) {
    SampleUnit unit =
        TwcsUnit(view_, index_.SizeWeightedCluster(h, rng), m_, rng);
    unit.tag = h;
    out->push_back(std::move(unit));
  }
}

std::vector<SampleUnit> StratifiedTwcsSource::NextBatch(uint64_t n, Rng& rng) {
  std::vector<SampleUnit> batch;
  if (!seeded_) {
    // Seed round: every stratum gets enough draws for a variance estimate,
    // except one without triples (zero-size clusters only): it has nothing
    // to draw and weight 0, so Neyman allocation never draws there either.
    seeded_ = true;
    for (size_t h = 0; h < stats_.size(); ++h) {
      if (index_.StratumTriples(h) == 0) continue;
      DrawInto(&batch, h, min_stratum_units_, rng);
    }
    return batch;
  }
  // Neyman allocation of the batch using running stddevs.
  std::vector<double> stddevs(stats_.size());
  for (size_t h = 0; h < stats_.size(); ++h) {
    stddevs[h] = stats_[h].SampleStdDev();
  }
  const std::vector<uint64_t> allocation =
      NeymanAllocation(weights_, stddevs, n, /*min_per_stratum=*/0);
  for (size_t h = 0; h < stats_.size(); ++h) {
    if (allocation[h] > 0) DrawInto(&batch, h, allocation[h], rng);
  }
  return batch;
}

void StratifiedTwcsSource::AddUnit(const SampleUnit& unit,
                                   const uint8_t* labels) {
  if (unit.offsets.empty()) return;  // zero-size cluster: no information.
  const size_t h = static_cast<size_t>(unit.tag);
  KGACC_CHECK(h < stats_.size());
  const uint64_t correct = CountCorrect(unit, labels);
  RunningStats& stats = stats_[h];
  stats.Add(static_cast<double>(correct) /
            static_cast<double>(unit.offsets.size()));
  Estimate estimate;
  estimate.mean = stats.Mean();
  estimate.variance_of_mean = stats.VarianceOfMean();
  estimate.num_units = stats.Count();
  combined_.UpdateStratum(h, estimate);
}

Strata SizeStrata(const KgView& view, int num_strata) {
  return StratifySizes(TriplePrefixIndex(view).Offsets(), num_strata);
}

Strata OracleStrata(const KgView& view, const TruthOracle& oracle,
                    int num_strata) {
  const uint64_t n = view.NumClusters();
  std::vector<double> signal(n);
  std::vector<uint64_t> sizes(n);
  for (uint64_t i = 0; i < n; ++i) {
    sizes[i] = view.ClusterSize(i);
    signal[i] = RealizedClusterAccuracy(oracle, i, sizes[i]);
  }
  return StratifyClusters(signal, sizes, num_strata);
}

std::unique_ptr<Campaign> MakeStratifiedTwcsCampaign(
    StratumIndex index, std::vector<double> weights, Annotator* annotator,
    const EvaluationOptions& options) {
  // The source is both sampler and estimator.
  auto source = std::make_shared<StratifiedTwcsSource>(
      std::move(index), std::move(weights),
      ResolveSecondStageSize(options, annotator->cost_model(),
                             /*stats=*/nullptr),
      options.min_stratum_units);
  return std::make_unique<EngineCampaign>(
      annotator, options, EngineConfig{.design_name = "TWCS+strat"}, source,
      source);
}

std::unique_ptr<Campaign> MakeStratifiedTwcsCampaign(
    TriplePrefixIndex column, Strata strata, Annotator* annotator,
    const EvaluationOptions& options) {
  KGACC_CHECK(strata.NumStrata() >= 1) << "need at least one stratum";
  const size_t num_strata = strata.NumStrata();
  return MakeStratifiedTwcsCampaign(
      StratumIndex(std::move(column), std::move(strata.stratum_of),
                   num_strata),
      std::move(strata.weights), annotator, options);
}

}  // namespace kgacc
