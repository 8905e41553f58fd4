#include "core/incremental.h"

#include "core/optimal_m.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace kgacc {

namespace {

struct IncrementalMetrics {
  obs::Histogram* initialize = obs::MetricsRegistry::Global().GetHistogram(
      "incremental.driver.initialize_seconds");
  obs::Histogram* apply = obs::MetricsRegistry::Global().GetHistogram(
      "incremental.driver.apply_update_seconds");
  obs::Counter* updates = obs::MetricsRegistry::Global().GetCounter(
      "incremental.driver.updates_applied");
  obs::Counter* clusters = obs::MetricsRegistry::Global().GetCounter(
      "incremental.driver.clusters_added");
};

IncrementalMetrics& Metrics() {
  static IncrementalMetrics metrics;
  return metrics;
}

}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const KgView* population,
                                           Annotator* annotator,
                                           EvaluationOptions options)
    : population_(population),
      annotator_(annotator),
      options_(options),
      rng_(options.seed) {
  KGACC_CHECK(population_ != nullptr);
  KGACC_CHECK(annotator_ != nullptr);
  m_ = ResolveSecondStageSize(options_, annotator_->cost_model(),
                              /*stats=*/nullptr);
}

EvaluationResult IncrementalEvaluator::Initialize() {
  obs::ScopedSpan span("incremental.driver.initialize", Metrics().initialize);
  return RunCampaign(*InitializeCampaign(), options_.control);
}

EvaluationResult IncrementalEvaluator::ApplyUpdate(uint64_t first_new_cluster,
                                                   uint64_t count) {
  obs::ScopedSpan span("incremental.driver.apply_update", Metrics().apply);
  Metrics().updates->Add(1);
  Metrics().clusters->Add(count);
  return RunCampaign(*UpdateCampaign(first_new_cluster, count),
                     options_.control);
}

}  // namespace kgacc
