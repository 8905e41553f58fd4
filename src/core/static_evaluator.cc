#include "core/static_evaluator.h"

#include "core/engine.h"
#include "estimators/unit_estimators.h"
#include "sampling/unit_samplers.h"
#include "util/logging.h"

namespace kgacc {

StaticEvaluator::StaticEvaluator(const KgView& view,
                                 Annotator* annotator,
                                 EvaluationOptions options)
    : view_(view), annotator_(annotator), options_(options) {
  KGACC_CHECK(annotator_ != nullptr);
  KGACC_CHECK(options_.moe_target > 0.0);
  KGACC_CHECK(options_.confidence > 0.0 && options_.confidence < 1.0);
  KGACC_CHECK(options_.batch_units > 0);
  KGACC_CHECK(view_.TotalTriples() > 0) << "cannot evaluate an empty graph";
}

void StaticEvaluator::SetPopulationStatsForAutoM(
    const ClusterPopulationStats* stats) {
  auto_m_stats_ = stats;
}

uint64_t StaticEvaluator::ResolveSecondStageSize() const {
  return kgacc::ResolveSecondStageSize(options_, annotator_->cost_model(),
                                       auto_m_stats_);
}

std::unique_ptr<Campaign> StaticEvaluator::SrsCampaign() const {
  return std::make_unique<EngineCampaign>(
      annotator_, options_, EngineConfig{.design_name = "SRS"},
      std::make_shared<SrsUnitSampler>(view_),
      std::make_shared<SrsUnitEstimator>());
}

std::unique_ptr<Campaign> StaticEvaluator::RcsCampaign() const {
  return std::make_unique<EngineCampaign>(
      annotator_, options_, EngineConfig{.design_name = "RCS"},
      std::make_shared<RcsUnitSampler>(view_),
      std::make_shared<RcsUnitEstimator>(view_.NumClusters(),
                                         view_.TotalTriples()));
}

std::unique_ptr<Campaign> StaticEvaluator::WcsCampaign() const {
  return std::make_unique<EngineCampaign>(
      annotator_, options_, EngineConfig{.design_name = "WCS"},
      std::make_shared<WcsUnitSampler>(view_),
      std::make_shared<WcsUnitEstimator>());
}

std::unique_ptr<Campaign> StaticEvaluator::TwcsCampaign() const {
  return std::make_unique<EngineCampaign>(
      annotator_, options_, EngineConfig{.design_name = "TWCS"},
      std::make_shared<TwcsUnitSampler>(view_, ResolveSecondStageSize()),
      std::make_shared<TwcsUnitEstimator>());
}

EvaluationResult StaticEvaluator::EvaluateSrs() {
  return RunCampaign(*SrsCampaign(), options_.control);
}

EvaluationResult StaticEvaluator::EvaluateRcs() {
  return RunCampaign(*RcsCampaign(), options_.control);
}

EvaluationResult StaticEvaluator::EvaluateWcs() {
  return RunCampaign(*WcsCampaign(), options_.control);
}

EvaluationResult StaticEvaluator::EvaluateTwcs() {
  return RunCampaign(*TwcsCampaign(), options_.control);
}

}  // namespace kgacc
