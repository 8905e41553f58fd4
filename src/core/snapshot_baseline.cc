#include "core/snapshot_baseline.h"

#include "core/design_registry.h"
#include "labels/annotator.h"
#include "util/rng.h"

namespace kgacc {

SnapshotBaselineEvaluator::SnapshotBaselineEvaluator(const TruthOracle* oracle,
                                                     CostModel cost_model,
                                                     EvaluationOptions options)
    : oracle_(oracle), cost_model_(cost_model), options_(options) {}

EvaluationResult SnapshotBaselineEvaluator::Evaluate(const KgView& view) {
  // Fresh annotator per snapshot: previous annotations are discarded.
  EvaluationOptions options = options_;
  options.seed = HashCombine(options_.seed, ++snapshot_counter_);
  SimulatedAnnotator annotator(oracle_, cost_model_,
                               {.noise_rate = 0.0, .seed = options.seed});
  return DesignRegistry::Global()
      .Run("twcs", view, &annotator, options)
      .value();
}

}  // namespace kgacc
