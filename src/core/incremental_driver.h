#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "core/incremental.h"
#include "core/reservoir_incremental.h"
#include "core/stratified_incremental.h"
#include "kg/kg_view.h"
#include "labels/annotator.h"
#include "util/result.h"

namespace kgacc {

/// Which incremental method an IncrementalCampaignDriver drives.
enum class IncrementalMethod {
  kReservoir,   ///< "rs" — Section 6.1, Algorithm 1.
  kStratified,  ///< "ss" — Section 6.2, Algorithm 2.
};

/// The campaign-level face of incremental evaluation: wraps the
/// reservoir/stratified update loops behind the same EvaluationResult
/// vocabulary as every engine design, so "rs" and "ss" register in the
/// DesignRegistry and per-round telemetry (EvaluationOptions::telemetry)
/// flows from the update loops exactly as it does from the engine.
///
/// One driver owns one evolving campaign: Initialize() evaluates the base
/// graph (the whole current population), then each ApplyUpdate() evaluates
/// one already-appended update batch. Each step is reported as its own
/// EvaluationResult whose cost fields cover only that step's new annotation
/// effort — the incremental-evaluation contract.
///
/// The driver is a thin adapter: at a fixed seed its estimates, sample
/// draws and annotation ledger are bit-for-bit identical to driving the
/// underlying evaluator directly (pinned by engine_parity-style tests).
/// Both run the evaluator's campaigns, through RunCampaign with
/// EvaluationOptions::control.
class IncrementalCampaignDriver {
 public:
  /// `population` and `annotator` are borrowed and must outlive the driver.
  IncrementalCampaignDriver(IncrementalMethod method, const KgView* population,
                            Annotator* annotator, EvaluationOptions options);

  /// Parses a registry-style design name ("rs"/"ss"); errors otherwise.
  static Result<IncrementalMethod> ParseMethod(const std::string& name);

  /// The design label the method reports ("RS"/"SS").
  static const char* DesignLabel(IncrementalMethod method);

  /// The registry's "rs"/"ss" design: a campaign evaluating the whole
  /// current population as the base graph, owning the driver it runs on.
  static std::unique_ptr<Campaign> BaseCampaign(IncrementalMethod method,
                                                const KgView* population,
                                                Annotator* annotator,
                                                EvaluationOptions options);

  /// Evaluates all clusters currently in the population (the base graph).
  EvaluationResult Initialize();

  /// Evaluates one update batch [first_new_cluster, +count) that has already
  /// been appended to the population.
  EvaluationResult ApplyUpdate(uint64_t first_new_cluster, uint64_t count);

  /// The current estimate without sampling anything new (the read path).
  Estimate CurrentEstimate() const;

  IncrementalMethod method() const { return method_; }

  /// Direct access to the wrapped evaluator, for snapshot/restore through
  /// core/state_io.h. Exactly one of these is non-null.
  ReservoirIncrementalEvaluator* reservoir() { return reservoir_.get(); }
  StratifiedIncrementalEvaluator* stratified() { return stratified_.get(); }

 private:
  IncrementalMethod method_;
  const EvaluationOptions options_;
  std::unique_ptr<ReservoirIncrementalEvaluator> reservoir_;
  std::unique_ptr<StratifiedIncrementalEvaluator> stratified_;
};

}  // namespace kgacc
