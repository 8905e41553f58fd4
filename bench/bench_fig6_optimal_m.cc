// Reproduces Figure 6: the effect of the TWCS second-stage size m (1..20)
// on sample size and annotation time, on NELL and two MOVIE-SYN instances
// (BMM labels), with SRS as reference and the theoretical Eq 10/Eq 12 cost
// band (upper bound: all clusters >= m; lower bound: all singletons).
//
// Paper shape: sampled clusters drop steeply from m=1 and plateau; the
// annotation time is U-shaped (minimum around m=3..5) on MOVIE-SYN and
// monotone-then-flat on NELL (98% of its clusters are below size 5);
// TWCS at m=1 matches SRS (Prop 2).

#include <cstdio>

#include "bench_util.h"
#include "core/optimal_m.h"
#include "datasets/registry.h"
#include "labels/annotator.h"

namespace kgacc {
namespace {

void RunDataset(const char* name, const KgView& view, const TruthOracle& oracle,
                int trials, uint64_t seed) {
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};
  const ClusterPopulationStats stats = BuildPopulationStats(view, oracle);

  // SRS reference.
  RunningStats srs_hours;
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    // The paper's reported runs stop at ~18-24 first-stage units
    // (Tables 4/6); match that floor instead of the conservative 30.
    options.min_units = 15;
    options.seed = seed + 7919 * t;
    SimulatedAnnotator annotator(&oracle, cost);
    srs_hours.Add(
        bench::RunDesign("srs", view, &annotator, options).AnnotationHours());
  }

  bench::Banner(StrFormat("Figure 6 — %s (%d trials; SRS ref %.2f±%.2f h)",
                          name, trials, srs_hours.Mean(),
                          srs_hours.SampleStdDev()));
  std::printf("%4s %16s %16s %12s %22s\n", "m", "clusters", "triples",
              "time (h)", "theory band (h)");
  bench::Rule();

  double best_time = 0.0;
  uint64_t best_m = 1;
  for (uint64_t m = 1; m <= 20; ++m) {
    RunningStats clusters, triples, hours;
    for (int t = 0; t < trials; ++t) {
      EvaluationOptions options;
    // The paper's reported runs stop at ~18-24 first-stage units
    // (Tables 4/6); match that floor instead of the conservative 30.
    options.min_units = 15;
      options.m = m;
      options.seed = seed + 104729 * t + m;
      SimulatedAnnotator annotator(&oracle, cost);
      const EvaluationResult r =
          bench::RunDesign("twcs", view, &annotator, options);
      clusters.Add(static_cast<double>(r.estimate.num_units));
      triples.Add(static_cast<double>(r.ledger.triples_annotated));
      hours.Add(r.AnnotationHours());
    }
    const TwcsCostBand band =
        TwcsPredictedCost(stats, m, 0.05, 0.05, cost.c1_seconds, cost.c2_seconds);
    std::printf("%4llu %16s %16s %12s %10.2f – %-9.2f\n",
                static_cast<unsigned long long>(m),
                bench::MeanStd(clusters, 0).c_str(),
                bench::MeanStd(triples, 0).c_str(),
                bench::MeanStd(hours).c_str(), band.lower_seconds / 3600.0,
                band.upper_seconds / 3600.0);
    if (m == 1 || hours.Mean() < best_time) {
      best_time = hours.Mean();
      best_m = m;
    }
  }
  const OptimalMResult predicted = ChooseOptimalM(stats, cost, 0.05, 0.05, 20);
  std::printf("empirical best m = %llu; Eq 12 predicted best m = %llu "
              "(paper: optimum in 3..5)\n",
              static_cast<unsigned long long>(best_m),
              static_cast<unsigned long long>(predicted.best_m));
}

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();

  {
    const Dataset nell = MakeNell(seed);
    RunDataset("NELL", nell.View(), *nell.oracle, bench::Trials(100), seed);
  }
  {
    // MOVIE-SYN with the default BMM (c = 0.01, sigma = 0.1).
    const Dataset syn = MakeMovieSyn(BmmParams{.k = 3, .c = 0.01, .sigma = 0.1},
                                     seed);
    RunDataset("MOVIE-SYN (c=0.01, sigma=0.1)", syn.View(), *syn.oracle,
               bench::Trials(20), seed);
  }
  {
    // MOVIE-SYN with weaker noise (sigma = 0.05): clusters more homogeneous,
    // TWCS beats SRS by a wider margin (the paper's eps=10% instance).
    const Dataset syn = MakeMovieSyn(BmmParams{.k = 3, .c = 0.01, .sigma = 0.05},
                                     seed + 1);
    RunDataset("MOVIE-SYN (c=0.01, sigma=0.05)", syn.View(), *syn.oracle,
               bench::Trials(20), seed);
  }

  std::printf("\nPaper shape: cluster draws plateau after m~5; time is "
              "U-shaped with the minimum at m in 3..5;\nm=1 matches SRS "
              "(Proposition 2).\n");
  return 0;
}
