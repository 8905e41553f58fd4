// Auditing a production-scale knowledge graph: the MOVIE scenario from the
// paper's introduction (IMDb + WikiData, 2.65M triples over 289K entities).
//
// The audit demonstrates the workflow a data-quality team would follow:
//   1. run a small pilot to choose the cost-optimal second-stage size m;
//   2. compare what SRS would have cost against TWCS;
//   3. tighten the target and re-audit with size-stratified TWCS.
//
// Run: ./build/examples/movie_accuracy_audit

#include <cstdio>

#include "kgaccuracy.h"

int main() {
  using namespace kgacc;
  const CostModel cost_model{.c1_seconds = 45.0, .c2_seconds = 25.0};

  std::printf("Building the MOVIE graph (2.65M triples, 289K entities)...\n");
  const Dataset movie = MakeMovie(/*seed=*/2026);

  // --- Step 1: pilot for the optimal second-stage size m (Eq 12). ---------
  SimulatedAnnotator annotator(movie.oracle.get(), cost_model);
  const Result<OptimalMResult> pilot =
      PilotOptimalM(movie.View(), &annotator, /*alpha=*/0.05, /*epsilon=*/0.05,
                    /*pilot_clusters=*/20, /*m_max=*/10, /*seed=*/1);
  if (!pilot.ok()) {
    std::fprintf(stderr, "pilot failed: %s\n", pilot.status().ToString().c_str());
    return 1;
  }
  std::printf("pilot (%llu triples annotated, %s): optimal m = %llu\n",
              static_cast<unsigned long long>(
                  annotator.ledger().triples_annotated),
              FormatDuration(annotator.ElapsedSeconds()).c_str(),
              static_cast<unsigned long long>(pilot->best_m));

  // --- Step 2: the audit, TWCS vs what SRS would have cost. ---------------
  EvaluationOptions options;
  options.m = pilot->best_m;
  options.seed = 99;

  // The pilot's annotations stay cached: TWCS reuses any triple it re-draws.
  const DesignRegistry& designs = DesignRegistry::Global();
  const EvaluationResult twcs =
      designs.Run("twcs", movie.View(), &annotator, options).value();

  SimulatedAnnotator srs_annotator(movie.oracle.get(), cost_model);
  const EvaluationResult srs =
      designs.Run("srs", movie.View(), &srs_annotator, options).value();

  std::printf("\n%-10s %26s %14s %12s\n", "design", "estimate [95% CI]",
              "entities/triples", "time");
  for (const EvaluationResult* r : {&twcs, &srs}) {
    std::printf("%-10s %10s [%s, %s] %7llu/%-7llu %12s\n", r->design.c_str(),
                FormatPercent(r->estimate.mean, 1).c_str(),
                FormatPercent(r->estimate.CiLower(0.05), 1).c_str(),
                FormatPercent(r->estimate.CiUpper(0.05), 1).c_str(),
                static_cast<unsigned long long>(r->ledger.entities_identified),
                static_cast<unsigned long long>(r->ledger.triples_annotated),
                FormatDuration(r->annotation_seconds).c_str());
  }
  std::printf("TWCS saved %.0f%% of the annotation bill.\n",
              (1.0 - twcs.annotation_seconds / srs.annotation_seconds) * 100.0);

  // --- Step 3: a tighter re-audit with size stratification. ----------------
  // Cluster size is a useful accuracy signal (paper Fig 3); cum-sqrt(F)
  // strata + Neyman allocation cut the variance further.
  std::printf("\nRe-auditing at MoE 3%% with 4 size strata...\n");
  EvaluationOptions tight = options;
  tight.moe_target = 0.03;
  tight.num_strata = 4;
  SimulatedAnnotator strat_annotator(movie.oracle.get(), cost_model);
  const EvaluationResult strat =
      designs.Run("twcs+strat", movie.View(), &strat_annotator, tight).value();

  std::printf("stratified TWCS: %s [%s, %s], %s, %llu strata draws\n",
              FormatPercent(strat.estimate.mean, 1).c_str(),
              FormatPercent(strat.estimate.CiLower(0.05), 1).c_str(),
              FormatPercent(strat.estimate.CiUpper(0.05), 1).c_str(),
              FormatDuration(strat.annotation_seconds).c_str(),
              static_cast<unsigned long long>(strat.estimate.num_units));

  const double truth = RealizedOverallAccuracy(*movie.oracle, movie.View());
  std::printf("(ground truth: %s)\n", FormatPercent(truth, 1).c_str());
  return 0;
}
