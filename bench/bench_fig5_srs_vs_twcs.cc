// Reproduces Figure 5: SRS vs TWCS sample size (entities + triples) and
// annotation time across confidence levels (90% / 95% / 99%) on NELL, YAGO
// and MOVIE, with the TWCS cost-reduction ratio printed per bar.
//
// Paper shape: TWCS identifies far fewer entities than SRS at slightly more
// triples, cutting cost by up to ~20% (NELL/MOVIE); on the nearly perfect
// YAGO both designs need only tens of triples and TWCS's advantage vanishes
// (even dipping negative at 90% confidence).

#include <cstdio>

#include "bench_util.h"
#include "core/optimal_m.h"
#include "datasets/registry.h"
#include "labels/annotator.h"

namespace kgacc {
namespace {

void RunDataset(const char* name, const Dataset& dataset, int trials,
                uint64_t seed) {
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};
  const ClusterPopulationStats stats =
      BuildPopulationStats(dataset.View(), *dataset.oracle);

  bench::Banner(StrFormat("Figure 5 — %s (%d trials)", name, trials));
  std::printf("%-6s %-6s %14s %14s %12s %12s\n", "conf", "design",
              "entities", "triples", "time (h)", "reduction");
  bench::Rule();

  for (double confidence : {0.90, 0.95, 0.99}) {
    // TWCS runs at the Eq 12-optimal m for this confidence level.
    const uint64_t optimal_m =
        ChooseOptimalM(stats, cost, 1.0 - confidence,
                       EvaluationOptions().moe_target)
            .best_m;
    RunningStats srs_entities, srs_triples, srs_hours;
    RunningStats twcs_entities, twcs_triples, twcs_hours;
    for (int t = 0; t < trials; ++t) {
      EvaluationOptions options;
    // The paper's reported runs stop at ~18-24 first-stage units
    // (Tables 4/6); match that floor instead of the conservative 30.
    options.min_units = 15;
      options.confidence = confidence;
      options.seed = seed + 13 * t + static_cast<uint64_t>(confidence * 100);

      SimulatedAnnotator a1(dataset.oracle.get(), cost);
      const EvaluationResult r1 =
          bench::RunDesign("srs", dataset.View(), &a1, options);
      srs_entities.Add(static_cast<double>(r1.ledger.entities_identified));
      srs_triples.Add(static_cast<double>(r1.ledger.triples_annotated));
      srs_hours.Add(r1.AnnotationHours());

      SimulatedAnnotator a2(dataset.oracle.get(), cost);
      options.m = optimal_m;
      const EvaluationResult r2 =
          bench::RunDesign("twcs", dataset.View(), &a2, options);
      twcs_entities.Add(static_cast<double>(r2.ledger.entities_identified));
      twcs_triples.Add(static_cast<double>(r2.ledger.triples_annotated));
      twcs_hours.Add(r2.AnnotationHours());
    }
    const double reduction = 1.0 - twcs_hours.Mean() / srs_hours.Mean();
    std::printf("%-6.0f %-6s %14s %14s %12s %12s\n", confidence * 100.0, "SRS",
                bench::MeanStd(srs_entities, 0).c_str(),
                bench::MeanStd(srs_triples, 0).c_str(),
                bench::MeanStd(srs_hours).c_str(), "");
    std::printf("%-6.0f %-6s %14s %14s %12s %11.0f%%\n", confidence * 100.0,
                "TWCS", bench::MeanStd(twcs_entities, 0).c_str(),
                bench::MeanStd(twcs_triples, 0).c_str(),
                bench::MeanStd(twcs_hours).c_str(), reduction * 100.0);
  }
}

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();

  {
    const Dataset nell = MakeNell(seed);
    RunDataset("NELL", nell, bench::Trials(200), seed);
  }
  {
    const Dataset yago = MakeYago(seed);
    RunDataset("YAGO", yago, bench::Trials(200), seed);
  }
  {
    const Dataset movie = MakeMovie(seed);
    RunDataset("MOVIE", movie, bench::Trials(50), seed);
  }

  std::printf(
      "\nPaper shape: TWCS saves up to ~20%% time on NELL/MOVIE; on YAGO the "
      "two designs are equivalent\n(both need only ~20-30 triples) and TWCS "
      "can be slightly worse at 90%% confidence.\n");
  return 0;
}
