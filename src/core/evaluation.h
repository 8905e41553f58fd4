#pragma once

#include <cstdint>
#include <string>

#include "cost/cost_model.h"
#include "stats/estimate.h"
#include "util/status.h"

namespace kgacc {

class CampaignControl;  // core/campaign_control.h
class TelemetrySink;    // core/telemetry.h

/// How the SRS stopping rule builds its confidence interval. The paper uses
/// the Wald (normal plug-in) interval, which degenerates when the sample
/// proportion sits at 0 or 1 — on a nearly perfect KG the reported MoE
/// collapses to zero after a streak of correct triples. Wilson stays
/// calibrated near the boundary (cf. the paper's footnote reporting an
/// empirical CI for YAGO).
enum class CiMethod { kWald, kWilson };

/// Knobs of the iterative evaluation framework (Fig 2). The defaults mirror
/// the paper's experimental setup: MoE <= 5% at 95% confidence.
struct EvaluationOptions {
  /// Required margin of error epsilon (half CI width).
  double moe_target = 0.05;

  /// Confidence level 1 - alpha.
  double confidence = 0.95;

  /// Minimum number of i.i.d. sampling units before the CLT-based CI is
  /// trusted (the "n > 30" rule of thumb, paper footnote 3).
  uint64_t min_units = 30;

  /// Units drawn per iteration of the framework (clusters for cluster
  /// designs, triples for SRS). Small batches avoid oversampling.
  uint64_t batch_units = 10;

  /// TWCS second-stage sample size; 0 selects it automatically (Eq 12 given
  /// oracle population stats when available, else the paper's recommended
  /// default of 5 — Section 7.2.2 finds the optimum in 3..5).
  uint64_t m = 0;

  /// Hard budget on simulated annotation seconds; 0 = unlimited. The paper
  /// stops RCS/WCS on MOVIE at 5 hours the same way (Table 5 footnote).
  double max_cost_seconds = 0.0;

  /// Hard cap on sampling units; 0 = unlimited. Safety valve against
  /// non-converging configurations.
  uint64_t max_units = 200000;

  /// Seed for all sampling randomness of one evaluation run.
  uint64_t seed = 42;

  /// Minimum first-stage draws per stratum before its variance estimate is
  /// trusted (stratified designs and the Delta stratum of incremental
  /// evaluation). Small because strata are by construction more homogeneous.
  uint64_t min_stratum_units = 10;

  /// CI used by the SRS stopping rule (see CiMethod).
  CiMethod srs_ci = CiMethod::kWald;

  /// Stratum count of the DesignRegistry's "twcs+strat" size strata;
  /// MakeStratifiedTwcsCampaign callers pass explicit Strata instead.
  uint64_t num_strata = 4;

  /// Clusters annotated by the "twcs+pilot" design's pilot before the Eq 12
  /// search; 0 selects max(min_units, 30). The pilot's annotations stay
  /// cached, so a larger pilot trades upfront cost for a better-informed m.
  uint64_t pilot_size = 0;

  /// Borrowed per-round telemetry receiver (see core/telemetry.h); null
  /// disables emission. Carried inside the options so campaign telemetry
  /// flows through the DesignRegistry and the CLI without widening every
  /// design signature. Never influences the evaluation itself.
  TelemetrySink* telemetry = nullptr;

  /// Borrowed round-boundary control (see core/campaign_control.h) that
  /// RunCampaign consults; null runs the campaign to completion. Carried
  /// inside the options for the same reason as `telemetry`: so it flows
  /// through the DesignRegistry without widening every design signature.
  /// Controls how far a campaign runs, never what it computes.
  CampaignControl* control = nullptr;

  double Alpha() const { return 1.0 - confidence; }
};

/// Most units CheckEvaluationOptions accepts in one allocation-sized count:
/// `batch_units` (drawn per round), `min_units`, `min_stratum_units` and
/// `pilot_size` (each drawn at once into one batch). A million units is
/// far past any campaign the paper runs; the cap keeps an outside count
/// from reaching a vector's reserve().
inline constexpr uint64_t kMaxRoundUnits = 1000000;

/// Every range rule on EvaluationOptions' value fields, in one place:
/// moe_target finite and > 0, confidence in (0, 1), batch_units in
/// [1, kMaxRoundUnits], min_units / min_stratum_units / pilot_size at most
/// kMaxRoundUnits, num_strata at most kMaxStrata (0 selects the default),
/// and max_cost_seconds finite and >= 0. InvalidArgument names the field.
/// DesignRegistry::MakeCampaign calls it, so the CLI, the daemon's
/// start-campaign and resume, and tenant admission all refuse a bad
/// configuration with this Status instead of reaching a fatal check.
Status CheckEvaluationOptions(const EvaluationOptions& options);

/// Outcome of one evaluation campaign.
struct EvaluationResult {
  std::string design;       ///< "SRS", "RCS", "WCS", "TWCS", "TWCS+strat", ...
  Estimate estimate;        ///< unbiased accuracy estimate + variance.
  double moe = 1.0;         ///< achieved margin of error at `confidence`.
  bool converged = false;   ///< true when moe <= moe_target was reached.
  uint64_t rounds = 0;      ///< framework iterations executed.

  /// True when the campaign ended before its own stopping decision (a
  /// control's kSuspend, or a serve session suspended or stopped):
  /// `rounds`/`estimate`/ledger cover the completed rounds only, and the
  /// campaign can be resumed bit-identically by replaying those rounds.
  bool suspended = false;

  /// Simulated human effort charged by the annotator for this campaign.
  AnnotationLedger ledger;
  double annotation_seconds = 0.0;

  /// Machine time spent generating samples (the paper's Table 6 column).
  double machine_seconds = 0.0;

  double AnnotationHours() const { return annotation_seconds / 3600.0; }
};

}  // namespace kgacc
