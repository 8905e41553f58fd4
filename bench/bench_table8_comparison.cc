// Reproduces Table 8: the qualitative comparison of KG accuracy evaluation
// approaches — but with each cell *measured* rather than asserted:
//
//                       SRS    KGEval    Ours (TWCS + incremental)
//   unbiased             yes     no        yes
//   efficient            no      yes*      yes
//   incremental          no      no        yes
//
// Evidence gathered on NELL (static) and an evolving MOVIE-like stream:
//   - unbiasedness: |mean of estimates - gold| across trials;
//   - efficiency:   annotation hours per converged evaluation;
//   - incremental:  cost of re-establishing the target after an update.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/kgeval/kgeval_baseline.h"
#include "core/snapshot_baseline.h"
#include "core/stratified_incremental.h"
#include "datasets/registry.h"
#include "kg/generator.h"
#include "labels/annotator.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();
  const int trials = bench::Trials(100);

  const Dataset nell = MakeNell(seed);
  const double gold = Characterize(nell).gold_accuracy;

  // --- SRS and TWCS: bias + cost over trials. -------------------------------
  RunningStats srs_estimates, srs_hours, twcs_estimates, twcs_hours;
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    options.seed = seed + 11 * t;
    options.min_units = 15;
    SimulatedAnnotator a1(nell.oracle.get(), kCost), a2(nell.oracle.get(), kCost);
    const EvaluationResult srs =
        bench::RunDesign("srs", nell.View(), &a1, options);
    const EvaluationResult twcs =
        bench::RunDesign("twcs", nell.View(), &a2, options);
    srs_estimates.Add(srs.estimate.mean);
    srs_hours.Add(srs.AnnotationHours());
    twcs_estimates.Add(twcs.estimate.mean);
    twcs_hours.Add(twcs.AnnotationHours());
  }

  // --- KGEval: single deterministic run (its estimate has no distribution).
  SimulatedAnnotator kgeval_annotator(nell.oracle.get(), kCost);
  KgEvalBaseline kgeval(*nell.graph, KgEvalBaseline::Options{});
  const KgEvalBaseline::Result kgeval_result = kgeval.Run(&kgeval_annotator);

  // --- Incremental: update cost for ours vs re-running SRS/KGEval. -----------
  // (SRS and KGEval have no incremental mode; their "update cost" is a full
  // re-evaluation. Ours is the SS update cost.)
  Rng rng(seed);
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle(seed ^ 0x77);
  {
    std::vector<uint32_t> sizes = GenerateLogNormalSizes(20000, 0.94, 1.6,
                                                         5000, rng);
    for (uint32_t s : sizes) {
      population.Append(s);
      oracle.Append(0.9);
    }
  }
  EvaluationOptions options;
  options.seed = seed + 1;
  SimulatedAnnotator ss_annotator(&oracle, kCost);
  StratifiedIncrementalEvaluator ss(&population, &ss_annotator, options);
  ss.Initialize();
  SnapshotBaselineEvaluator scratch(&oracle, kCost, options);
  const uint64_t first = population.NumClusters();
  {
    std::vector<uint32_t> sizes = GenerateLogNormalSizes(2000, 0.94, 1.6,
                                                         5000, rng);
    for (uint32_t s : sizes) {
      population.Append(s);
      oracle.Append(0.9);
    }
  }
  const EvaluationResult ss_update =
      ss.ApplyUpdate(first, population.NumClusters() - first);
  const EvaluationResult full_redo = scratch.Evaluate(population);

  // --- The table. -------------------------------------------------------------
  bench::Banner("Table 8: summary of KG accuracy evaluation approaches "
                "(measured on NELL / evolving MOVIE-like)");
  std::printf("%-28s %14s %14s %14s\n", "property", "SRS", "KGEval", "Ours");
  bench::Rule();
  std::printf("%-28s %13.1f%% %13.1f%% %13.1f%%\n", "bias |est - gold|",
              std::abs(srs_estimates.Mean() - gold) * 100.0,
              std::abs(kgeval_result.estimated_accuracy - gold) * 100.0,
              std::abs(twcs_estimates.Mean() - gold) * 100.0);
  std::printf("%-28s %14s %14s %14s\n", "statistical guarantee", "CI",
              "none", "CI");
  std::printf("%-28s %13.2fh %13.2fh %13.2fh\n", "static evaluation cost",
              srs_hours.Mean(), kgeval_result.annotation_seconds / 3600.0,
              twcs_hours.Mean());
  // Neither SRS nor KGEval has an incremental mode: their update cost is a
  // full re-evaluation of the evolved graph.
  std::printf("%-28s %13.2fh %13.2fh %13.2fh\n", "cost after 10% update",
              full_redo.AnnotationHours(), full_redo.AnnotationHours(),
              ss_update.AnnotationHours());
  std::printf("%-28s %14s %14s %14s\n", "incremental support", "no", "no",
              "yes (RS/SS)");
  std::printf("\nPaper Table 8: SRS unbiased but inefficient; KGEval efficient"
              " (in annotations) but biased and\nnon-incremental; this "
              "framework is unbiased + efficient + incremental.\n");
  std::printf("(KGEval 'cost after update' shown as a full redo — it has no "
              "incremental mode.)\n");
  return 0;
}
