#include "core/engine.h"

#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgacc {

namespace {

/// Per-phase latency histograms of the engine's round body. Resolved once;
/// the registry keeps the pointers valid for the process lifetime.
struct EngineMetrics {
  obs::Histogram* sample = obs::MetricsRegistry::Global().GetHistogram(
      "engine.round.sample_seconds");
  obs::Histogram* annotate = obs::MetricsRegistry::Global().GetHistogram(
      "engine.round.annotate_seconds");
  obs::Histogram* estimate = obs::MetricsRegistry::Global().GetHistogram(
      "engine.round.estimate_seconds");
};

EngineMetrics& Metrics() {
  static EngineMetrics metrics;
  return metrics;
}

}  // namespace

EngineCampaign::EngineCampaign(Annotator* annotator,
                               const EvaluationOptions& options,
                               const EngineConfig& config,
                               std::shared_ptr<UnitSampler> sampler,
                               std::shared_ptr<UnitEstimator> estimator)
    : PolicyCampaign(config.design_name, config.telemetry_label, annotator,
                     options,
                     config.telemetry != nullptr ? config.telemetry
                                                 : options.telemetry),
      sampler_(std::move(sampler)),
      estimator_(std::move(estimator)),
      rng_(config.seed_override.value_or(options.seed)),
      // Pipelined rounds: with an asynchronous annotator and a
      // prefetch-safe sampler, round k+1's units are drawn while round k's
      // annotations are in flight. The rng consumes draws in exactly the
      // sequential order (round 1, round 2, ...), so labels, estimates,
      // traces and cost are bit-identical to the sequential schedule; the
      // one discarded speculative draw after the stopping round is invisible
      // (campaign-local rng and sampler, and a resumed campaign replays the
      // same sequence). Speculation never extends to annotation itself —
      // cost is observable.
      pipelined_(options.pipeline_rounds && annotator->AsyncCapable() &&
                 sampler_->PrefetchSafe()) {
  KGACC_CHECK(sampler_ != nullptr);
  KGACC_CHECK(estimator_ != nullptr);
}

PolicyCampaign::RoundOutcome EngineCampaign::RunRound() {
  // The ScopedSpans below are purely observational (histograms + trace
  // events); `sample_timer` stays the product-level source of
  // machine_seconds so KGACC_NO_METRICS builds report identical results.
  const uint64_t batch_units = options().batch_units;
  WallTimer sample_timer;
  std::vector<SampleUnit> batch;
  if (prefetched_.has_value()) {
    batch = *std::move(prefetched_);
    prefetched_.reset();
  } else {
    obs::ScopedSpan span("engine.round.sample", Metrics().sample);
    batch = sampler_->NextBatch(batch_units, rng_);
  }
  machine_seconds_ += sample_timer.ElapsedSeconds();

  {
    obs::ScopedSpan span("engine.round.annotate", Metrics().annotate);
    refs_.clear();
    for (const SampleUnit& unit : batch) {
      for (uint64_t offset : unit.offsets) {
        refs_.push_back(TripleRef{unit.cluster, offset});
      }
    }
    labels_.resize(refs_.size());
    if (pipelined_) {
      annotator()->BeginAnnotateBatch(std::span<const TripleRef>(refs_),
                                      labels_.data());
    } else {
      annotator()->AnnotateBatch(std::span<const TripleRef>(refs_),
                                 labels_.data());
    }
  }
  if (pipelined_) {
    // The overlap: draw the next round's units while this round's labels
    // are in flight, then collect them.
    WallTimer prefetch_timer;
    {
      obs::ScopedSpan span("engine.round.sample", Metrics().sample);
      prefetched_ = sampler_->NextBatch(batch_units, rng_);
    }
    machine_seconds_ += prefetch_timer.ElapsedSeconds();
    obs::ScopedSpan span("engine.round.annotate", Metrics().annotate);
    annotator()->FinishAnnotateBatch();
  }

  obs::ScopedSpan span("engine.round.estimate", Metrics().estimate);
  const uint8_t* cursor = labels_.data();
  for (const SampleUnit& unit : batch) {
    estimator_->AddUnit(unit, cursor);
    cursor += unit.offsets.size();
  }
  return RoundOutcome{
      .estimate = estimator_->Current(),
      .moe = policy().MarginOfError(*estimator_),
      .exhausted = batch.empty() && sampler_->Exhaustible()};
}

ConfidenceInterval EngineCampaign::RoundInterval(const Estimate&) const {
  return policy().Interval(*estimator_);
}

EvaluationEngine::EvaluationEngine(Annotator* annotator,
                                   EvaluationOptions options)
    : annotator_(annotator), options_(options) {
  KGACC_CHECK(annotator_ != nullptr);
  KGACC_CHECK(options_.batch_units > 0);
}

EvaluationResult EvaluationEngine::Run(const EngineConfig& config) {
  KGACC_CHECK(config.sampler != nullptr);
  KGACC_CHECK(config.estimator != nullptr);
  // Non-owning: the caller keeps the sampler and estimator alive.
  EngineCampaign campaign(
      annotator_, options_, config,
      std::shared_ptr<UnitSampler>(std::shared_ptr<void>(), config.sampler),
      std::shared_ptr<UnitEstimator>(std::shared_ptr<void>(),
                                     config.estimator));
  return RunCampaign(campaign, options_.control);
}

}  // namespace kgacc
