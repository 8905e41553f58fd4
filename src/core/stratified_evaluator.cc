#include "core/stratified_evaluator.h"

#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/stratified_source.h"
#include "sampling/srs.h"
#include "util/logging.h"

namespace kgacc {

StratifiedTwcsEvaluator::StratifiedTwcsEvaluator(const KgView& view,
                                                 Annotator* annotator,
                                                 EvaluationOptions options)
    : view_(view), annotator_(annotator), options_(options) {
  KGACC_CHECK(annotator_ != nullptr);
  KGACC_CHECK(view_.TotalTriples() > 0);
}

void StratifiedTwcsEvaluator::SetPopulationStatsForAutoM(
    const ClusterPopulationStats* stats) {
  auto_m_stats_ = stats;
}

uint64_t StratifiedTwcsEvaluator::ResolveSecondStageSize() const {
  return kgacc::ResolveSecondStageSize(options_, annotator_->cost_model(),
                                       auto_m_stats_);
}

Strata StratifiedTwcsEvaluator::SizeStrata(const KgView& view, int num_strata) {
  return StratifySizes(TriplePrefixIndex(view).Offsets(), num_strata);
}

Strata StratifiedTwcsEvaluator::OracleStrata(const KgView& view,
                                             const TruthOracle& oracle,
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

EvaluationResult StratifiedTwcsEvaluator::Evaluate(const Strata& strata) {
  return RunCampaign(*MakeCampaign(strata), options_.control);
}

std::unique_ptr<Campaign> StratifiedTwcsEvaluator::MakeCampaign(
    Strata strata) const {
  KGACC_CHECK(strata.NumStrata() >= 1) << "need at least one stratum";
  return MakeEngineCampaign(std::make_shared<StratifiedTwcsSource>(
      view_, std::move(strata), ResolveSecondStageSize(),
      options_.min_stratum_units));
}

std::unique_ptr<Campaign> StratifiedTwcsEvaluator::MakeSizeStratifiedCampaign(
    int num_strata) const {
  TriplePrefixIndex column(view_);
  Strata strata = StratifySizes(column.Offsets(), num_strata);
  return MakeEngineCampaign(std::make_shared<StratifiedTwcsSource>(
      std::move(column), std::move(strata), ResolveSecondStageSize(),
      options_.min_stratum_units));
}

std::unique_ptr<Campaign> StratifiedTwcsEvaluator::MakeEngineCampaign(
    std::shared_ptr<StratifiedTwcsSource> source) const {
  // The source is both sampler and estimator.
  return std::make_unique<EngineCampaign>(
      annotator_, options_, EngineConfig{.design_name = "TWCS+strat"}, source,
      source);
}

}  // namespace kgacc
