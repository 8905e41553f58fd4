#include "core/incremental_driver.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgacc {

namespace {

struct DriverMetrics {
  obs::Histogram* initialize = obs::MetricsRegistry::Global().GetHistogram(
      "incremental.driver.initialize_seconds");
  obs::Histogram* apply = obs::MetricsRegistry::Global().GetHistogram(
      "incremental.driver.apply_update_seconds");
  obs::Counter* updates = obs::MetricsRegistry::Global().GetCounter(
      "incremental.driver.updates_applied");
  obs::Counter* clusters = obs::MetricsRegistry::Global().GetCounter(
      "incremental.driver.clusters_added");
};

DriverMetrics& Metrics() {
  static DriverMetrics metrics;
  return metrics;
}

}  // namespace

IncrementalCampaignDriver::IncrementalCampaignDriver(
    IncrementalMethod method, const KgView* population, Annotator* annotator,
    EvaluationOptions options)
    : method_(method), options_(options) {
  switch (method_) {
    case IncrementalMethod::kReservoir:
      reservoir_ = std::make_unique<ReservoirIncrementalEvaluator>(
          population, annotator, options);
      break;
    case IncrementalMethod::kStratified:
      stratified_ = std::make_unique<StratifiedIncrementalEvaluator>(
          population, annotator, options);
      break;
  }
}

Result<IncrementalMethod> IncrementalCampaignDriver::ParseMethod(
    const std::string& name) {
  if (name == "rs") return IncrementalMethod::kReservoir;
  if (name == "ss") return IncrementalMethod::kStratified;
  return Status::InvalidArgument(
      StrFormat("unknown incremental method '%s' (want rs or ss)",
                name.c_str()));
}

const char* IncrementalCampaignDriver::DesignLabel(IncrementalMethod method) {
  switch (method) {
    case IncrementalMethod::kReservoir: return "RS";
    case IncrementalMethod::kStratified: return "SS";
  }
  KGACC_CHECK(false) << "unreachable";
  return "";
}

std::unique_ptr<Campaign> IncrementalCampaignDriver::BaseCampaign(
    IncrementalMethod method, const KgView* population, Annotator* annotator,
    EvaluationOptions options) {
  auto driver = std::make_unique<IncrementalCampaignDriver>(
      method, population, annotator, options);
  std::unique_ptr<Campaign> base =
      driver->reservoir_ != nullptr ? driver->reservoir_->InitializeCampaign()
                                    : driver->stratified_->InitializeCampaign();
  return std::make_unique<OwningCampaign<IncrementalCampaignDriver>>(
      std::move(driver), std::move(base));
}

EvaluationResult IncrementalCampaignDriver::Initialize() {
  obs::ScopedSpan span("incremental.driver.initialize", Metrics().initialize);
  return RunCampaign(reservoir_ != nullptr ? *reservoir_->InitializeCampaign()
                                           : *stratified_->InitializeCampaign(),
                     options_.control);
}

EvaluationResult IncrementalCampaignDriver::ApplyUpdate(
    uint64_t first_new_cluster, uint64_t count) {
  obs::ScopedSpan span("incremental.driver.apply_update", Metrics().apply);
  Metrics().updates->Add(1);
  Metrics().clusters->Add(count);
  return RunCampaign(
      reservoir_ != nullptr
          ? *reservoir_->UpdateCampaign(first_new_cluster, count)
          : *stratified_->UpdateCampaign(first_new_cluster, count),
      options_.control);
}

Estimate IncrementalCampaignDriver::CurrentEstimate() const {
  return reservoir_ != nullptr ? reservoir_->CurrentEstimate()
                               : stratified_->CurrentEstimate();
}

}  // namespace kgacc
