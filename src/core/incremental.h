#pragma once

#include <cstdint>

#include "core/evaluation.h"
#include "stats/estimate.h"

namespace kgacc {

/// Outcome of one incremental evaluation step (Initialize or ApplyUpdate) on
/// an evolving KG. Cost fields cover only the *new* annotation effort of
/// this step — the whole point of incremental evaluation is that retained
/// samples cost nothing.
struct IncrementalUpdateReport {
  Estimate estimate;                     ///< accuracy of the current G+Delta.
  double moe = 1.0;                      ///< achieved margin of error.
  bool converged = false;                ///< MoE target met.
  uint64_t newly_annotated_entities = 0; ///< clusters identified this step.
  uint64_t newly_annotated_triples = 0;  ///< triples annotated this step.
  double step_cost_seconds = 0.0;        ///< Eq 4 cost of this step only.
  uint64_t sample_units = 0;             ///< first-stage units backing the estimate.
  double machine_seconds = 0.0;          ///< sample-maintenance machine time.
  uint64_t rounds = 0;                   ///< estimate/stop iterations this step.

  double StepCostHours() const { return step_cost_seconds / 3600.0; }

  /// The report of a step whose campaign returned `result`.
  static IncrementalUpdateReport FromResult(const EvaluationResult& result) {
    return IncrementalUpdateReport{
        .estimate = result.estimate,
        .moe = result.moe,
        .converged = result.converged,
        .newly_annotated_entities = result.ledger.entities_identified,
        .newly_annotated_triples = result.ledger.triples_annotated,
        .step_cost_seconds = result.annotation_seconds,
        .sample_units = result.estimate.num_units,
        .machine_seconds = result.machine_seconds,
        .rounds = result.rounds};
  }
};

}  // namespace kgacc
