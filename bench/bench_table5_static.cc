// Reproduces Table 5: performance comparison of SRS / RCS / WCS / TWCS on
// MOVIE, NELL and YAGO (annotation hours + estimation, MoE 5% @ 95%).
//
// Paper values (hours):
//   MOVIE: SRS 3.53, RCS >5 (stopped), WCS >5 (stopped), TWCS 1.4
//   NELL:  SRS 2.3±0.45, RCS 8.25±2.55, WCS 1.92±0.62, TWCS 1.85±0.6
//   YAGO:  SRS 0.45±0.17, RCS 10±0.56, WCS 0.49±0.04, TWCS 0.44±0.07
// As in the paper, RCS/WCS runs are cut off at 5 hours of annotation budget
// on MOVIE (footnote: their estimates then miss the MoE target).

#include <cstdio>

#include "bench_util.h"
#include "core/optimal_m.h"
#include "datasets/registry.h"
#include "labels/annotator.h"

namespace kgacc {
namespace {

struct DesignRow {
  RunningStats hours;
  RunningStats estimate;
  int not_converged = 0;
};

void RunDataset(const char* name, const Dataset& dataset, int trials,
                uint64_t seed, double budget_hours) {
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};
  const ClusterPopulationStats stats =
      BuildPopulationStats(dataset.View(), *dataset.oracle);

  // TWCS runs at the Eq 12-optimal m.
  const uint64_t optimal_m =
      ChooseOptimalM(stats, cost, EvaluationOptions().Alpha(),
                     EvaluationOptions().moe_target)
          .best_m;
  DesignRow rows[4];
  const char* designs[4] = {"SRS", "RCS", "WCS", "TWCS"};
  const char* names[4] = {"srs", "rcs", "wcs", "twcs"};
  for (int t = 0; t < trials; ++t) {
    for (int d = 0; d < 4; ++d) {
      EvaluationOptions options;
    // The paper's reported runs stop at ~18-24 first-stage units
    // (Tables 4/6); match that floor instead of the conservative 30.
    options.min_units = 15;
      options.seed = seed + 17 * t + d;
      // The paper stops RCS/WCS at 5 hours on MOVIE for economic reasons.
      if (d == 1 || d == 2) options.max_cost_seconds = budget_hours * 3600.0;
      options.m = optimal_m;
      SimulatedAnnotator annotator(dataset.oracle.get(), cost);
      const EvaluationResult r =
          bench::RunDesign(names[d], dataset.View(), &annotator, options);
      rows[d].hours.Add(r.AnnotationHours());
      rows[d].estimate.Add(r.estimate.mean);
      if (!r.converged) ++rows[d].not_converged;
    }
  }

  bench::Banner(StrFormat("Table 5 — %s (%d trials)", name, trials));
  std::printf("%-8s %18s %18s %14s\n", "method", "annotation (h)",
              "estimation", "missed target");
  bench::Rule();
  for (int d = 0; d < 4; ++d) {
    std::printf("%-8s %18s %18s %11d/%d\n", designs[d],
                bench::MeanStd(rows[d].hours).c_str(),
                bench::MeanStdPercent(rows[d].estimate).c_str(),
                rows[d].not_converged, trials);
  }
  std::printf("TWCS vs SRS cost reduction: %.0f%%\n",
              (1.0 - rows[3].hours.Mean() / rows[0].hours.Mean()) * 100.0);
}

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();

  {
    const Dataset nell = MakeNell(seed);
    RunDataset("NELL (gold acc ~91%)", nell, bench::Trials(200), seed,
               /*budget_hours=*/24.0);
  }
  {
    const Dataset yago = MakeYago(seed);
    RunDataset("YAGO (gold acc ~99%)", yago, bench::Trials(200), seed,
               /*budget_hours=*/24.0);
  }
  {
    const Dataset movie = MakeMovie(seed);
    RunDataset("MOVIE (gold acc ~90%, RCS/WCS capped at 5h)", movie,
               bench::Trials(40), seed, /*budget_hours=*/5.0);
  }

  std::printf(
      "\nPaper (hours): MOVIE SRS 3.53 / RCS >5 / WCS >5 / TWCS 1.4;\n"
      "NELL SRS 2.3 / RCS 8.25 / WCS 1.92 / TWCS 1.85; YAGO SRS 0.45 / RCS 10 "
      "/ WCS 0.49 / TWCS 0.44.\n"
      "Expected shape: TWCS <= WCS < SRS << RCS everywhere; RCS/WCS blow the "
      "budget on MOVIE.\n");
  return 0;
}
