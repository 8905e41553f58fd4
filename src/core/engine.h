#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "kg/triple.h"
#include "labels/annotator.h"
#include "util/rng.h"

namespace kgacc {

/// One first-stage sampling unit of the iterative framework (Fig 2): the set
/// of triple positions that one draw commits the annotator to. SRS units hold
/// exactly one offset; RCS/WCS units a whole cluster; TWCS units the
/// second-stage subsample. A cluster drawn twice (with-replacement designs)
/// yields two independent units.
struct SampleUnit {
  uint64_t cluster = 0;
  std::vector<uint64_t> offsets;

  /// Sampler-private routing tag, carried back verbatim to the estimator
  /// (e.g. the stratum index of a stratified design). Plain designs ignore it.
  uint64_t tag = 0;
};

/// Produces sampling units for the evaluation campaign. The SRS/RCS/WCS/TWCS
/// designs are the samplers in sampling/unit_samplers.h; composite designs
/// (stratified TWCS) implement allocation and drawing internally.
class UnitSampler {
 public:
  virtual ~UnitSampler() = default;

  /// Draws up to `n` new units. Without-replacement samplers return fewer
  /// (eventually zero) units as the population runs out.
  virtual std::vector<SampleUnit> NextBatch(uint64_t n, Rng& rng) = 0;

  /// True for without-replacement designs, whose empty batch means the
  /// population is exhausted (a terminal condition for the stopping policy).
  /// With-replacement samplers never exhaust.
  virtual bool Exhaustible() const { return false; }

  /// True when NextBatch may be called speculatively: the engine's pipelined
  /// mode draws round k+1's units while round k's annotations are still in
  /// flight, discarding the draw if the campaign stops first. Samplers whose
  /// next draw depends on the previous round's labels — composite designs
  /// routing estimator feedback into allocation, e.g. stratified TWCS —
  /// return false and keep the strictly sequential round schedule.
  virtual bool PrefetchSafe() const { return true; }
};

/// Consumes annotated units and exposes the running unbiased estimate.
/// Adapters in estimators/unit_estimators.h wrap the Eq 5/7/8/9 estimators.
class UnitEstimator {
 public:
  virtual ~UnitEstimator() = default;

  /// Adds one annotated unit. `labels[i]` is the 0/1 label of
  /// `unit.offsets[i]`. Units are fed back in the exact order the sampler
  /// returned them.
  virtual void AddUnit(const SampleUnit& unit, const uint8_t* labels) = 0;

  /// The current point estimate with its CLT variance.
  virtual Estimate Current() const = 0;

  /// When the estimate is a plain binomial proportion (SRS), exposes the
  /// success/trial counts so the stopping policy can build a Wilson interval.
  /// Returns false for designs whose units are not Bernoulli trials.
  virtual bool BinomialCounts(uint64_t* successes, uint64_t* trials) const {
    (void)successes;
    (void)trials;
    return false;
  }
};

/// Borrowed configuration of one campaign. `sampler` and `estimator` may
/// point to the same object (composite designs that route allocation through
/// estimator feedback, e.g. stratified TWCS).
struct EngineConfig {
  std::string design_name;
  UnitSampler* sampler = nullptr;
  UnitEstimator* estimator = nullptr;
  /// Campaign label reported to the telemetry sink ("" for one-shot runs;
  /// incremental evaluators use "initialize"/"update-N").
  std::string telemetry_label;
};

/// The engine designs' round body (Fig 2):
///
///   sample batch -> annotate (batched) -> estimate
///
/// with the stopping check and telemetry of PolicyCampaign. Every static
/// design in the library is a configuration of this campaign; new designs
/// plug in a UnitSampler/UnitEstimator pair and inherit identical, tested
/// stopping and accounting semantics (ledger deltas, rounds, machine vs
/// annotation time).
class EngineCampaign final : public PolicyCampaign {
 public:
  /// Runs `sampler` and `estimator`, which may share one object (composite
  /// designs), under `config`'s design name and label;
  /// config.sampler/estimator are not read. EvaluationEngine::Run passes
  /// non-owning pointers to the parts its caller keeps alive.
  EngineCampaign(Annotator* annotator, const EvaluationOptions& options,
                 const EngineConfig& config,
                 std::shared_ptr<UnitSampler> sampler,
                 std::shared_ptr<UnitEstimator> estimator);

 private:
  RoundOutcome RunRound() override;
  ConfidenceInterval RoundInterval(const Estimate& estimate) const override;

  std::shared_ptr<UnitSampler> sampler_;
  std::shared_ptr<UnitEstimator> estimator_;
  Rng rng_;
  /// Pipelined rounds (see the constructor): the asynchronous annotator
  /// overlaps a round's labels with drawing the next round's units.
  const bool pipelined_;
  std::optional<std::vector<SampleUnit>> prefetched_;
  std::vector<TripleRef> refs_;
  std::vector<uint8_t> labels_;
};

/// Runs engine campaigns over borrowed samplers and estimators.
class EvaluationEngine {
 public:
  /// `annotator` is borrowed and must outlive the engine.
  EvaluationEngine(Annotator* annotator, EvaluationOptions options);

  /// Runs one campaign to completion (RunCampaign with
  /// EvaluationOptions::control).
  EvaluationResult Run(const EngineConfig& config);

 private:
  Annotator* annotator_;
  EvaluationOptions options_;
};

}  // namespace kgacc
