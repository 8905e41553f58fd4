// Reproduces Table 7: TWCS with stratification (cumulative sqrt-F size
// strata, and oracle accuracy strata) vs plain TWCS and SRS on NELL,
// MOVIE-SYN (c=0.01, sigma=0.1) and MOVIE.
//
// Paper values (hours):
//   NELL:      SRS 2.3 / TWCS 1.85 / size-strat 1.90 / oracle-strat 1.04
//   MOVIE-SYN: SRS 6.99 / TWCS 5.25 / size-strat 3.97 / oracle-strat 2.87
//   MOVIE:     SRS 3.53 / TWCS 1.4 / size-strat 1.3 / oracle N/A
// Shape: size stratification helps a lot when labels follow the BMM
// (accuracy correlates with size), is ~neutral on NELL; oracle
// stratification lower-bounds the achievable cost.

#include <cstdio>

#include "bench_util.h"
#include "core/optimal_m.h"
#include "core/stratified_source.h"
#include "datasets/registry.h"
#include "labels/annotator.h"

namespace kgacc {
namespace {

void RunDataset(const char* name, const Dataset& dataset, int num_strata,
                int trials, uint64_t seed, bool with_oracle) {
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};
  const ClusterPopulationStats stats =
      BuildPopulationStats(dataset.View(), *dataset.oracle);
  const Strata size_strata = SizeStrata(dataset.View(), num_strata);
  const Strata oracle_strata =
      with_oracle ? OracleStrata(dataset.View(), *dataset.oracle, num_strata)
                  : Strata{};
  // Plain TWCS runs at the Eq 12-optimal m; the stratified runs at the
  // default m.
  const uint64_t optimal_m =
      ChooseOptimalM(stats, cost, EvaluationOptions().Alpha(),
                     EvaluationOptions().moe_target)
          .best_m;
  const auto run_stratified = [&](const Strata& strata,
                                  const EvaluationOptions& options) {
    SimulatedAnnotator annotator(dataset.oracle.get(), cost);
    return RunCampaign(
        *MakeStratifiedTwcsCampaign(TriplePrefixIndex(dataset.View()), strata,
                                    &annotator, options),
        options.control);
  };

  RunningStats hours[4], estimate[4];
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    // The paper's reported runs stop at ~18-24 first-stage units
    // (Tables 4/6); match that floor instead of the conservative 30.
    options.min_units = 15;
    options.seed = seed + 101 * t;

    {
      SimulatedAnnotator annotator(dataset.oracle.get(), cost);
      const EvaluationResult r =
          bench::RunDesign("srs", dataset.View(), &annotator, options);
      hours[0].Add(r.AnnotationHours());
      estimate[0].Add(r.estimate.mean);
    }
    {
      SimulatedAnnotator annotator(dataset.oracle.get(), cost);
      EvaluationOptions twcs = options;
      twcs.m = optimal_m;
      const EvaluationResult r =
          bench::RunDesign("twcs", dataset.View(), &annotator, twcs);
      hours[1].Add(r.AnnotationHours());
      estimate[1].Add(r.estimate.mean);
    }
    {
      const EvaluationResult r = run_stratified(size_strata, options);
      hours[2].Add(r.AnnotationHours());
      estimate[2].Add(r.estimate.mean);
    }
    if (with_oracle) {
      const EvaluationResult r = run_stratified(oracle_strata, options);
      hours[3].Add(r.AnnotationHours());
      estimate[3].Add(r.estimate.mean);
    }
  }

  bench::Banner(StrFormat("Table 7 — %s (%d trials, %zu size strata)", name,
                          trials, size_strata.NumStrata()));
  std::printf("%-28s %16s %18s\n", "method", "cost (h)", "estimation");
  bench::Rule();
  const char* methods[4] = {"SRS", "TWCS", "TWCS w/ size strat",
                            "TWCS w/ oracle strat"};
  for (int i = 0; i < (with_oracle ? 4 : 3); ++i) {
    std::printf("%-28s %16s %18s\n", methods[i],
                bench::MeanStd(hours[i]).c_str(),
                bench::MeanStdPercent(estimate[i]).c_str());
  }
  if (!with_oracle) {
    std::printf("%-28s %16s %18s\n", methods[3], "N/A", "N/A");
  }
}

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();

  {
    const Dataset nell = MakeNell(seed);
    // Paper: NELL gets two strata.
    RunDataset("NELL (gold acc ~91%)", nell, 2, bench::Trials(200), seed,
               /*with_oracle=*/true);
  }
  {
    const Dataset syn =
        MakeMovieSyn(BmmParams{.k = 3, .c = 0.01, .sigma = 0.1}, seed);
    // Paper: MOVIE-SYN gets four strata.
    RunDataset("MOVIE-SYN (c=0.01, sigma=0.1)", syn, 4, bench::Trials(20),
               seed, /*with_oracle=*/true);
  }
  {
    const Dataset movie = MakeMovie(seed);
    // Paper: MOVIE has no exhaustive gold labels -> oracle strat is N/A.
    RunDataset("MOVIE (gold acc ~90%)", movie, 4, bench::Trials(20), seed,
               /*with_oracle=*/false);
  }

  std::printf(
      "\nPaper (hours): NELL 2.3/1.85/1.90/1.04; MOVIE-SYN 6.99/5.25/3.97/2.87; "
      "MOVIE 3.53/1.4/1.3/N-A.\nShape: size stratification shines on "
      "BMM-labeled MOVIE-SYN, is ~neutral on NELL; oracle stratification is "
      "the lower bound.\n");
  return 0;
}
