#pragma once

#include "core/evaluation.h"
#include "kg/kg_view.h"
#include "labels/truth_oracle.h"

namespace kgacc {

/// The evolving-KG Baseline of Section 7.3: after every update, throw away
/// all previous annotations and run a fresh static TWCS evaluation on the
/// whole current graph. Each Evaluate() call uses a brand-new annotator, so
/// no identification or label caching carries over — exactly the cost the
/// paper charges this baseline.
class SnapshotBaselineEvaluator {
 public:
  SnapshotBaselineEvaluator(const TruthOracle* oracle, CostModel cost_model,
                            EvaluationOptions options);

  /// Evaluates the current state of the evolving graph from scratch.
  EvaluationResult Evaluate(const KgView& view);

 private:
  const TruthOracle* oracle_;
  CostModel cost_model_;
  EvaluationOptions options_;
  uint64_t snapshot_counter_ = 0;
};

}  // namespace kgacc
