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
                     options, options.telemetry),
      sampler_(std::move(sampler)),
      estimator_(std::move(estimator)),
      rng_(options.seed),
      // Pipelined rounds: with an asynchronous annotator and a
      // prefetch-safe sampler, round k+1's units are drawn while round k's
      // annotations are in flight. The rng consumes draws in exactly the
      // sequential order (round 1, round 2, ...), so labels, estimates,
      // traces and cost are bit-identical to the sequential schedule; the
      // one discarded speculative draw after the stopping round is invisible
      // (campaign-local rng and sampler, and a resumed campaign replays the
      // same sequence). Speculation never extends to annotation itself —
      // cost is observable.
      pipelined_(annotator->AsyncCapable() && sampler_->PrefetchSafe()) {
  KGACC_CHECK(sampler_ != nullptr);
  KGACC_CHECK(estimator_ != nullptr);
}

PolicyCampaign::RoundOutcome EngineCampaign::RunRound() {
  // The spans are purely observational. With metrics on, the sample and
  // annotate phases record histograms through PhaseSpans, which reuses the
  // reads of the sampling stopwatch (the product-level source of
  // machine_seconds, read whether or not metrics are on), so they cost one
  // more clock read a round. The estimate and stopping-check spans carry no
  // histogram: a clock read a round each was most of what metrics added to
  // a small campaign, so they read the clock only for a trace.
  const uint64_t batch_units = options().batch_units;
  const uint64_t round_start = MonotonicNanos();
  obs::PhaseSpans phases(round_start);
  // A prefetched batch was drawn, and timed, during the previous round.
  const char* sample_span = "engine.round.sample";
  std::vector<SampleUnit> batch;
  if (prefetched_.has_value()) {
    batch = *std::move(prefetched_);
    prefetched_.reset();
    sample_span = nullptr;
  } else {
    batch = sampler_->NextBatch(batch_units, rng_);
  }
  const uint64_t sampled = MonotonicNanos();
  machine_seconds_ += static_cast<double>(sampled - round_start) * 1e-9;
  phases.Lap(sample_span, Metrics().sample, sampled);

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
    // The overlap: draw the next round's units while this round's labels
    // are in flight, then collect them.
    const uint64_t prefetch_start = MonotonicNanos();
    phases.Lap("engine.round.annotate", Metrics().annotate, prefetch_start);
    prefetched_ = sampler_->NextBatch(batch_units, rng_);
    const uint64_t prefetch_end = MonotonicNanos();
    machine_seconds_ +=
        static_cast<double>(prefetch_end - prefetch_start) * 1e-9;
    phases.Lap("engine.round.sample", Metrics().sample, prefetch_end);
    annotator()->FinishAnnotateBatch();
  } else {
    annotator()->AnnotateBatch(std::span<const TripleRef>(refs_),
                               labels_.data());
  }
  phases.Lap("engine.round.annotate", Metrics().annotate);

  obs::ScopedSpan span("engine.round.estimate");  // trace-only.
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
