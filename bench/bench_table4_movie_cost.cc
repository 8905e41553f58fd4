// Reproduces Table 4: manual evaluation cost on MOVIE for SRS vs TWCS(m=10)
// at the 5% MoE / 95% confidence target.
//
// Paper values:
//   SRS:         174 entities / 174 triples, 3.53 h, estimate 88% (MoE 4.85%)
//   TWCS(m=10):   24 entities / 178 triples, 1.4 h,  estimate 90% (MoE 4.97%)

#include <cstdio>

#include "bench_util.h"
#include "datasets/datasets.h"
#include "labels/annotator.h"

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();
  const int trials = bench::Trials(100);
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};

  const Dataset movie = MakeMovie(seed);

  RunningStats srs_entities, srs_triples, srs_hours, srs_estimate;
  RunningStats twcs_entities, twcs_triples, twcs_hours, twcs_estimate;
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    // The paper's reported runs stop at ~18-24 first-stage units
    // (Tables 4/6); match that floor instead of the conservative 30.
    options.min_units = 15;
    options.seed = seed + 1000 + t;

    SimulatedAnnotator a1(movie.oracle.get(), cost);
    const EvaluationResult r1 =
        bench::RunDesign("srs", movie.View(), &a1, options);
    srs_entities.Add(static_cast<double>(r1.ledger.entities_identified));
    srs_triples.Add(static_cast<double>(r1.ledger.triples_annotated));
    srs_hours.Add(r1.AnnotationHours());
    srs_estimate.Add(r1.estimate.mean);

    options.m = 10;  // the paper's Table 4 TWCS configuration.
    SimulatedAnnotator a2(movie.oracle.get(), cost);
    const EvaluationResult r2 =
        bench::RunDesign("twcs", movie.View(), &a2, options);
    twcs_entities.Add(static_cast<double>(r2.ledger.entities_identified));
    twcs_triples.Add(static_cast<double>(r2.ledger.triples_annotated));
    twcs_hours.Add(r2.AnnotationHours());
    twcs_estimate.Add(r2.estimate.mean);
  }

  bench::Banner(StrFormat("Table 4: manual evaluation cost on MOVIE "
                          "(%d trials, MoE 5%%, 95%% confidence)",
                          trials));
  std::printf("%-14s %22s %16s %18s\n", "method", "task (entities/triples)",
              "time (hours)", "estimation");
  bench::Rule();
  std::printf("%-14s %10.0f / %-10.0f %16s %18s\n", "SRS",
              srs_entities.Mean(), srs_triples.Mean(),
              bench::MeanStd(srs_hours).c_str(),
              bench::MeanStdPercent(srs_estimate).c_str());
  std::printf("%-14s %10.0f / %-10.0f %16s %18s\n", "TWCS (m=10)",
              twcs_entities.Mean(), twcs_triples.Mean(),
              bench::MeanStd(twcs_hours).c_str(),
              bench::MeanStdPercent(twcs_estimate).c_str());
  std::printf("\nPaper: SRS 174/174 -> 3.53 h (est 88%%); TWCS(m=10) 24/178 "
              "-> 1.4 h (est 90%%).\n");
  std::printf("Cost reduction: %.0f%% (paper: ~60%%)\n",
              (1.0 - twcs_hours.Mean() / srs_hours.Mean()) * 100.0);
  return 0;
}
