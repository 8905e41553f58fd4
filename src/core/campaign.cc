#include "core/campaign.h"

#include <utility>

#include "core/campaign_control.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace kgacc {

namespace {

/// Round and campaign metrics of the campaign loop. Resolved once; the
/// registry keeps the pointers valid for the process lifetime.
struct CampaignMetrics {
  obs::Counter* rounds =
      obs::MetricsRegistry::Global().GetCounter("engine.rounds");
  obs::Counter* campaigns =
      obs::MetricsRegistry::Global().GetCounter("engine.campaigns");
};

CampaignMetrics& Metrics() {
  static CampaignMetrics metrics;
  return metrics;
}

/// The CampaignRound emitted after one round: cumulative cost/annotations
/// are measured against the campaign-start snapshot.
CampaignRound MakeCampaignRound(uint64_t round, const Estimate& estimate,
                                double moe, const ConfidenceInterval& ci,
                                const Annotator& annotator,
                                const AnnotationLedger& start_ledger,
                                double start_seconds) {
  const AnnotationLedger spent = annotator.ledger().Since(start_ledger);
  return CampaignRound{
      .round = round,
      .cost_seconds = annotator.ElapsedSeconds() - start_seconds,
      .units = estimate.num_units,
      .estimate = estimate.mean,
      .ci_lower = ci.lower,
      .ci_upper = ci.upper,
      .moe = moe,
      .triples_annotated = spent.triples_annotated,
      .entities_identified = spent.entities_identified};
}

}  // namespace

EvaluationResult RunCampaign(Campaign& campaign, CampaignControl* control) {
  Metrics().campaigns->Add(1);
  obs::ScopedSpan span("engine.campaign");  // trace-only.
  for (uint64_t completed = 0; !campaign.Done(); ++completed) {
    if (control != nullptr && control->BeforeRound(completed + 1) ==
                                  CampaignControl::Action::kSuspend) {
      EvaluationResult result = campaign.Result();
      result.suspended = true;
      return result;
    }
    campaign.Step();
  }
  return campaign.Result();
}

StoppingPolicy::StoppingPolicy(const EvaluationOptions& options)
    : options_(options) {
  KGACC_CHECK(options_.moe_target > 0.0);
  KGACC_CHECK(options_.confidence > 0.0 && options_.confidence < 1.0);
}

std::optional<ConfidenceInterval> StoppingPolicy::WilsonIntervalFor(
    const UnitEstimator& estimator, const Estimate& estimate) const {
  if (options_.srs_ci == CiMethod::kWilson && estimate.num_units > 0) {
    uint64_t successes = 0;
    uint64_t trials = 0;
    if (estimator.BinomialCounts(&successes, &trials)) {
      return WilsonInterval(successes, trials, options_.Alpha());
    }
  }
  return std::nullopt;
}

double StoppingPolicy::MarginOfError(const UnitEstimator& estimator) const {
  const Estimate estimate = estimator.Current();
  if (const std::optional<ConfidenceInterval> wilson =
          WilsonIntervalFor(estimator, estimate)) {
    return wilson->Width() / 2.0;
  }
  return estimate.MarginOfError(options_.Alpha());
}

double StoppingPolicy::MarginOfError(const Estimate& estimate) const {
  return estimate.MarginOfError(options_.Alpha());
}

ConfidenceInterval StoppingPolicy::Interval(
    const UnitEstimator& estimator) const {
  const Estimate estimate = estimator.Current();
  if (const std::optional<ConfidenceInterval> wilson =
          WilsonIntervalFor(estimator, estimate)) {
    return *wilson;
  }
  return Interval(estimate);
}

ConfidenceInterval StoppingPolicy::Interval(const Estimate& estimate) const {
  // Unclamped on purpose: the unbiased cluster estimators (Eq 7) can
  // overshoot [0, 1] in early rounds, and a telemetry interval must bracket
  // whatever estimate the stopping rule actually saw. Clamping to the
  // accuracy domain is a presentation concern (Estimate::CiLower/CiUpper).
  const double moe = MarginOfError(estimate);
  return ConfidenceInterval{estimate.mean - moe, estimate.mean + moe};
}

StopDecision StoppingPolicy::Check(const Estimate& estimate, double moe,
                                   double elapsed_cost_seconds,
                                   bool sampler_exhausted) const {
  if (estimate.num_units >= options_.min_units && moe <= options_.moe_target) {
    return {true, true};
  }
  if (sampler_exhausted) {
    return {true, moe <= options_.moe_target};
  }
  if (options_.max_cost_seconds > 0.0 &&
      elapsed_cost_seconds >= options_.max_cost_seconds) {
    return {true, false};
  }
  if (options_.max_units > 0 && estimate.num_units >= options_.max_units) {
    return {true, false};
  }
  return {false, false};
}

PolicyCampaign::PolicyCampaign(std::string design, const std::string& label,
                               Annotator* annotator,
                               const EvaluationOptions& options,
                               TelemetrySink* telemetry)
    : design_(std::move(design)),
      annotator_(annotator),
      options_(options),
      policy_(options),
      telemetry_(telemetry),
      start_ledger_(annotator->ledger()),
      start_seconds_(annotator->ElapsedSeconds()) {
  if (telemetry_ != nullptr) telemetry_->BeginCampaign(design_, label);
}

void PolicyCampaign::Step() {
  KGACC_CHECK(!done_) << "Step() on a finished campaign";
  ++rounds_;
  Metrics().rounds->Add(1);
  const RoundOutcome outcome = RunRound();
  estimate_ = outcome.estimate;
  moe_ = outcome.moe;

  obs::ScopedSpan span("engine.round.stopping_check");  // trace-only.
  if (telemetry_ != nullptr) {
    telemetry_->OnRound(MakeCampaignRound(
        rounds_, estimate_, moe_, RoundInterval(estimate_), *annotator_,
        start_ledger_, start_seconds_));
  }
  const StopDecision decision =
      policy_.Check(estimate_, moe_,
                    annotator_->ElapsedSeconds() - start_seconds_,
                    outcome.exhausted);
  span.Finish();
  if (!decision.stop) {
    Advance();
    return;
  }
  done_ = true;
  converged_ = decision.converged;
  if (telemetry_ != nullptr) telemetry_->EndCampaign(converged_);
}

EvaluationResult PolicyCampaign::Result() const {
  EvaluationResult result;
  result.design = design_;
  result.estimate = estimate_;
  result.moe = moe_;
  result.converged = converged_;
  result.rounds = rounds_;
  result.ledger = annotator_->ledger().Since(start_ledger_);
  result.annotation_seconds = annotator_->ElapsedSeconds() - start_seconds_;
  result.machine_seconds = machine_seconds_;
  return result;
}

}  // namespace kgacc
