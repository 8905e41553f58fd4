// Quickstart: estimate the accuracy of a knowledge graph with a 5% margin
// of error at 95% confidence using TWCS — the paper's recommended design —
// while paying as little (simulated) annotation effort as possible.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "kgaccuracy.h"

int main() {
  using namespace kgacc;

  // 1. A knowledge graph. Here: the NELL-sports reconstruction (817 entity
  //    clusters, 1,860 triples, ~91% of them correct). Any KgView works —
  //    load your own graph with LoadTsvFile() or wrap cluster sizes in a
  //    ClusterPopulation.
  const Dataset nell = MakeNell(/*seed=*/42);

  // 2. An annotator. The library never looks at labels directly; it asks an
  //    annotator, which charges time per the paper's cost model:
  //    45 s to identify a new entity + 25 s to validate each triple (Eq 4).
  //    SimulatedAnnotator answers from the dataset's gold labels; a real
  //    deployment would implement the same interface over a crowd.
  const CostModel cost_model{.c1_seconds = 45.0, .c2_seconds = 25.0};
  SimulatedAnnotator annotator(nell.oracle.get(), cost_model);

  // 3. Evaluate. The framework samples entity clusters in small batches and
  //    stops as soon as the margin of error is below the target — no
  //    oversampling (Fig 2 of the paper). Designs are picked by name from
  //    the DesignRegistry (kgacc_eval --list-designs prints them all).
  EvaluationOptions options;
  options.moe_target = 0.05;   // +-5 percentage points...
  options.confidence = 0.95;   // ...at 95% confidence.
  options.seed = 7;

  const Result<EvaluationResult> run =
      DesignRegistry::Global().Run("twcs", nell.View(), &annotator, options);
  if (!run.ok()) {  // e.g. an option out of range.
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const EvaluationResult& result = *run;

  // 4. Report.
  std::printf("design:            %s (second-stage m=%llu)\n",
              result.design.c_str(),
              static_cast<unsigned long long>(
                  ResolveSecondStageSize(options, cost_model, nullptr)));
  std::printf("estimated accuracy: %s\n",
              FormatPercent(result.estimate.mean, 1).c_str());
  std::printf("95%% CI:            [%s, %s] (MoE %.1f%%)\n",
              FormatPercent(result.estimate.CiLower(options.Alpha()), 1).c_str(),
              FormatPercent(result.estimate.CiUpper(options.Alpha()), 1).c_str(),
              result.moe * 100.0);
  std::printf("annotation effort:  %llu entities identified, %llu triples "
              "validated\n",
              static_cast<unsigned long long>(result.ledger.entities_identified),
              static_cast<unsigned long long>(result.ledger.triples_annotated));
  std::printf("annotation time:    %s (simulated human time)\n",
              FormatDuration(result.annotation_seconds).c_str());
  std::printf("machine time:       %s (sample generation)\n",
              FormatDuration(result.machine_seconds).c_str());
  std::printf("converged:          %s after %llu rounds\n",
              result.converged ? "yes" : "no",
              static_cast<unsigned long long>(result.rounds));

  // For reference: the true accuracy this sample estimates.
  const double truth = RealizedOverallAccuracy(*nell.oracle, nell.View());
  std::printf("(ground truth:      %s)\n", FormatPercent(truth, 1).c_str());
  return 0;
}
