#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/evaluation.h"
#include "core/telemetry.h"
#include "labels/annotator.h"
#include "stats/confidence.h"

namespace kgacc {

class CampaignControl;  // core/campaign_control.h
class UnitEstimator;    // core/engine.h

/// One evaluation campaign, advanced one round at a time: the iterative
/// framework of Fig 2 (sample -> annotate -> estimate -> quality control)
/// turned inside out, so a caller decides when the next round runs. Every
/// design is one: the engine designs (core/engine.h), the incremental RS and
/// SS steps, and the KGEval baseline, whose round is one annotation pick.
///
/// A campaign borrows its annotator (and the graph its design samples); both
/// must outlive it. Campaigns are deterministic given their configuration,
/// so one rebuilt from scratch and stepped k times is bit-identical to the
/// original after k steps — how a suspended serve session resumes.
class Campaign {
 public:
  virtual ~Campaign() = default;

  /// True once the campaign reached its own stopping decision.
  virtual bool Done() const = 0;

  /// Runs exactly one round, including any asynchronous annotation the
  /// round overlaps with drawing the next one. Requires !Done().
  virtual void Step() = 0;

  /// The result so far: terminal once Done(), otherwise it covers the
  /// completed rounds (`suspended` is left false; RunCampaign sets it).
  virtual EvaluationResult Result() const = 0;
};

/// A campaign together with what it borrows from (its evaluator or
/// baseline), for callers that hand out self-contained campaigns — the
/// DesignRegistry's factories. `owner` outlives `campaign`.
template <typename Owner>
class OwningCampaign final : public Campaign {
 public:
  OwningCampaign(std::unique_ptr<Owner> owner,
                 std::unique_ptr<Campaign> campaign)
      : owner_(std::move(owner)), campaign_(std::move(campaign)) {}

  bool Done() const override { return campaign_->Done(); }
  void Step() override { campaign_->Step(); }
  EvaluationResult Result() const override { return campaign_->Result(); }

 private:
  std::unique_ptr<Owner> owner_;
  std::unique_ptr<Campaign> campaign_;
};

/// The one campaign loop: steps `campaign` until it is done, consulting
/// `control` (may be null) before each round. A control that answers
/// kSuspend ends the loop early with `suspended = true` and the rounds
/// completed so far; the campaign's telemetry is then left open.
EvaluationResult RunCampaign(Campaign& campaign, CampaignControl* control);

/// Verdict of one stopping check.
struct StopDecision {
  bool stop = false;       ///< terminate the campaign now.
  bool converged = false;  ///< the MoE target was met.
};

/// The single source of truth for campaign termination: the MoE target with
/// Wald/Wilson CI selection, the CLT floor (min_units), the cost and unit
/// budgets, and sampler exhaustion. Every design with a statistical
/// guarantee — static, stratified, grouped, incremental — stops through
/// PolicyCampaign, which consults this one implementation.
class StoppingPolicy {
 public:
  explicit StoppingPolicy(const EvaluationOptions& options);

  /// The margin of error the stopping rule sees: the Wald half-width of Eq 1,
  /// or the Wilson half-width when CiMethod::kWilson is selected and the
  /// estimator exposes binomial counts (the SRS boundary-accuracy fix).
  double MarginOfError(const UnitEstimator& estimator) const;

  /// Plain Wald margin of error for callers without a UnitEstimator (the
  /// incremental evaluators' read paths).
  double MarginOfError(const Estimate& estimate) const;

  /// The confidence interval behind the margin of error, for telemetry:
  /// Wilson when selected and the estimator exposes binomial counts, the
  /// unclamped Wald interval otherwise (unclamped so the bounds always
  /// bracket the estimate, even when an unbiased cluster estimator
  /// overshoots [0, 1] in early rounds).
  ConfidenceInterval Interval(const UnitEstimator& estimator) const;

  /// Unclamped Wald interval for callers without a UnitEstimator.
  ConfidenceInterval Interval(const Estimate& estimate) const;

  /// Checks all termination conditions, in fixed precedence order:
  ///   1. converged: moe <= target with at least min_units units;
  ///   2. exhausted: the sampler ran dry (converged iff moe <= target);
  ///   3. cost budget: elapsed_cost_seconds >= max_cost_seconds (> 0);
  ///   4. unit budget: num_units >= max_units (> 0).
  StopDecision Check(const Estimate& estimate, double moe,
                     double elapsed_cost_seconds, bool sampler_exhausted) const;

 private:
  /// The Wilson interval when CiMethod::kWilson is selected and the
  /// estimator exposes binomial counts; nullopt selects the Wald path. The
  /// one dispatch shared by MarginOfError and Interval.
  std::optional<ConfidenceInterval> WilsonIntervalFor(
      const UnitEstimator& estimator, const Estimate& estimate) const;

  EvaluationOptions options_;
};

/// The round bookkeeping shared by every design that stops on the
/// StoppingPolicy (the engine designs, RS and SS): the campaign-start
/// ledger snapshot, BeginCampaign/OnRound/EndCampaign telemetry, the
/// stopping check and the ledger deltas of the result. A design supplies
/// only its round body (RunRound) and, optionally, what it does between a
/// round that did not stop and the next one (Advance).
class PolicyCampaign : public Campaign {
 public:
  bool Done() const final { return done_; }
  void Step() final;
  EvaluationResult Result() const override;

 protected:
  /// Snapshots the annotator's ledger and begins the telemetry campaign
  /// (`telemetry` is borrowed, may be null).
  PolicyCampaign(std::string design, const std::string& label,
                 Annotator* annotator, const EvaluationOptions& options,
                 TelemetrySink* telemetry);

  /// What one round body reports to the stopping check.
  struct RoundOutcome {
    Estimate estimate;
    double moe = 1.0;
    bool exhausted = false;  ///< the design has nothing left to draw.
  };

  /// One sample -> annotate -> estimate round.
  virtual RoundOutcome RunRound() = 0;

  /// The interval reported to telemetry for `estimate` (Wald by default).
  virtual ConfidenceInterval RoundInterval(const Estimate& estimate) const {
    return policy_.Interval(estimate);
  }

  /// Called after a round that did not stop the campaign.
  virtual void Advance() {}

  Annotator* annotator() const { return annotator_; }
  const EvaluationOptions& options() const { return options_; }
  const StoppingPolicy& policy() const { return policy_; }

  /// Machine time the design spent sampling (EvaluationResult's
  /// machine_seconds).
  double machine_seconds_ = 0.0;

 private:
  const std::string design_;
  Annotator* const annotator_;
  const EvaluationOptions options_;
  const StoppingPolicy policy_;
  TelemetrySink* const telemetry_;
  const AnnotationLedger start_ledger_;
  const double start_seconds_;

  uint64_t rounds_ = 0;
  bool done_ = false;
  bool converged_ = false;
  Estimate estimate_;
  double moe_ = 1.0;
};

}  // namespace kgacc
