// Ablations of the framework's design choices (beyond the paper's own
// experiments; DESIGN.md motivates each):
//
//   A. second-stage sampling WITH vs WITHOUT replacement — the paper argues
//      without-replacement "greatly reduces sampling variances when cluster
//      sizes are comparable [to] m" (Section 5.2.3);
//   B. the iterative batch size — small batches avoid oversampling but add
//      rounds; large batches overshoot the stopping point;
//   C. the CLT minimum-units floor — the cost of trusting the CI later;
//   D. Neyman vs proportional stratum allocation in stratified TWCS;
//   E. annotator label noise — how the MoE guarantee degrades with an
//      imperfect crowd.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/stratified_source.h"
#include "datasets/registry.h"
#include "labels/annotator.h"
#include "sampling/stratum_index.h"
#include "sampling/unit_samplers.h"
#include "stats/allocation.h"
#include "stats/normal.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

// --- A: second-stage with vs without replacement. ---------------------------
void AblationSecondStageReplacement(const Dataset& nell, int trials,
                                    uint64_t seed) {
  bench::Banner("Ablation A: TWCS second-stage with vs without replacement "
                "(NELL, m=5, n=60 draws)");
  std::printf("%-22s %20s\n", "second stage", "estimator stddev");
  bench::Rule();
  for (const bool with_replacement : {false, true}) {
    RunningStats estimates;
    Rng rng(seed);
    for (int t = 0; t < trials * 4; ++t) {
      TwcsUnitSampler sampler(nell.View(), 5);
      RunningStats draws;
      if (!with_replacement) {
        for (const SampleUnit& draw : sampler.NextBatch(60, rng)) {
          uint64_t correct = 0;
          for (uint64_t offset : draw.offsets) {
            if (nell.oracle->IsCorrect(TripleRef{draw.cluster, offset})) {
              ++correct;
            }
          }
          draws.Add(static_cast<double>(correct) /
                    static_cast<double>(draw.offsets.size()));
        }
      } else {
        // Same first stage, but offsets drawn uniformly WITH replacement.
        WcsUnitSampler first_stage(nell.View());
        for (const SampleUnit& draw : first_stage.NextBatch(60, rng)) {
          const uint64_t size = nell.View().ClusterSize(draw.cluster);
          uint64_t correct = 0;
          const uint64_t picks = std::min<uint64_t>(5, size);
          for (uint64_t j = 0; j < picks; ++j) {
            const uint64_t offset = rng.UniformIndex(size);
            if (nell.oracle->IsCorrect(TripleRef{draw.cluster, offset})) {
              ++correct;
            }
          }
          draws.Add(static_cast<double>(correct) / static_cast<double>(picks));
        }
      }
      estimates.Add(draws.Mean());
    }
    std::printf("%-22s %20.5f\n",
                with_replacement ? "with replacement" : "without (fpc)",
                estimates.SampleStdDev());
  }
  std::printf("Expected: without-replacement is tighter — NELL clusters are "
              "mostly smaller than m,\nso the fpc removes nearly all "
              "within-cluster noise.\n");
}

// --- B: batch size. ----------------------------------------------------------
void AblationBatchSize(const Dataset& nell, int trials, uint64_t seed) {
  bench::Banner("Ablation B: iterative batch size (NELL, TWCS)");
  std::printf("%10s %16s %14s %12s\n", "batch", "units drawn", "time (h)",
              "rounds");
  bench::Rule();
  for (const uint64_t batch : {1ull, 5ull, 10ull, 30ull, 100ull}) {
    RunningStats units, hours, rounds;
    for (int t = 0; t < trials; ++t) {
      EvaluationOptions options;
      options.batch_units = batch;
      options.min_units = 15;
      options.seed = seed + 31 * t + batch;
      SimulatedAnnotator annotator(nell.oracle.get(), kCost);
      const EvaluationResult r =
          bench::RunDesign("twcs", nell.View(), &annotator, options);
      units.Add(static_cast<double>(r.estimate.num_units));
      hours.Add(r.AnnotationHours());
      rounds.Add(static_cast<double>(r.rounds));
    }
    std::printf("%10llu %16s %14s %12.0f\n",
                static_cast<unsigned long long>(batch),
                bench::MeanStd(units, 0).c_str(),
                bench::MeanStd(hours).c_str(), rounds.Mean());
  }
  std::printf("Expected: cost grows with batch size (overshoot past the "
              "stopping point); batch=1 is cheapest\nbut needs the most "
              "rounds — the framework's small-batch default is the sweet "
              "spot.\n");
}

// --- C: minimum-units floor. --------------------------------------------------
void AblationMinUnits(const Dataset& nell, int trials, uint64_t seed) {
  bench::Banner("Ablation C: CLT minimum-units floor (NELL, TWCS)");
  const double truth = Characterize(nell).gold_accuracy;
  std::printf("%10s %14s %18s %16s\n", "min n", "time (h)", "estimate",
              "truth in CI");
  bench::Rule();
  for (const uint64_t min_units : {5ull, 15ull, 30ull, 60ull}) {
    RunningStats hours, estimates;
    int covered = 0;
    for (int t = 0; t < trials; ++t) {
      EvaluationOptions options;
      options.min_units = min_units;
      options.seed = seed + 97 * t + min_units;
      SimulatedAnnotator annotator(nell.oracle.get(), kCost);
      const EvaluationResult r =
          bench::RunDesign("twcs", nell.View(), &annotator, options);
      hours.Add(r.AnnotationHours());
      estimates.Add(r.estimate.mean);
      if (std::abs(r.estimate.mean - truth) <= r.moe) ++covered;
    }
    std::printf("%10llu %14s %18s %13d/%d\n",
                static_cast<unsigned long long>(min_units),
                bench::MeanStd(hours).c_str(),
                bench::MeanStdPercent(estimates).c_str(), covered, trials);
  }
  std::printf("Expected: tiny floors are cheaper but the early CI "
              "under-covers (variance estimated\nfrom too few draws); the "
              "floor buys calibration, not accuracy.\n");
}

// --- D: stratum allocation rule. ----------------------------------------------
void AblationAllocation(int trials, uint64_t seed) {
  const Dataset syn =
      MakeMovieSyn(BmmParams{.k = 3, .c = 0.01, .sigma = 0.1}, seed);
  const Strata strata = SizeStrata(syn.View(), 4);
  bench::Banner("Ablation D: Neyman vs proportional allocation "
                "(MOVIE-SYN, 4 size strata)");
  // Proportional allocation is emulated by zeroing the stddev signal: the
  // evaluator falls back to proportional when all stddevs are equal, so we
  // compare the evaluator (Neyman) against a fixed-proportional loop here.
  RunningStats neyman_hours;
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    options.seed = seed + 11 * t;
    options.min_units = 15;
    SimulatedAnnotator annotator(syn.oracle.get(), kCost);
    neyman_hours.Add(
        RunCampaign(*MakeStratifiedTwcsCampaign(TriplePrefixIndex(syn.View()),
                                                strata, &annotator, options),
                    options.control)
            .AnnotationHours());
  }
  // Proportional-only: run the same campaign but allocate by weight alone
  // (Neyman with equal stddevs == proportional; emulate via one-stratum-at-
  // a-time proportional batching using the library's ProportionalAllocation).
  RunningStats proportional_hours;
  const StratumIndex index(syn.View(), strata.stratum_of, strata.NumStrata());
  for (int t = 0; t < trials; ++t) {
    Rng rng(seed + 13 * t);
    SimulatedAnnotator annotator(syn.oracle.get(), kCost);
    std::vector<RunningStats> stats(strata.NumStrata());
    const auto combined_moe = [&] {
      double variance = 0.0;
      for (size_t h = 0; h < strata.NumStrata(); ++h) {
        variance += strata.weights[h] * strata.weights[h] *
                    stats[h].VarianceOfMean();
      }
      return ZCritical(0.05) * std::sqrt(variance);
    };
    uint64_t total_units = 0;
    while (true) {
      const std::vector<uint64_t> allocation =
          ProportionalAllocation(strata.weights, 10, 0);
      for (size_t h = 0; h < strata.NumStrata(); ++h) {
        for (uint64_t i = 0; i < allocation[h]; ++i) {
          // One TWCS unit (m = 5) inside stratum h.
          const SampleUnit unit = TwcsUnit(
              syn.View(), index.SizeWeightedCluster(h, rng), 5, rng);
          uint64_t correct = 0;
          for (uint64_t offset : unit.offsets) {
            if (annotator.Annotate(TripleRef{unit.cluster, offset})) ++correct;
          }
          stats[h].Add(static_cast<double>(correct) /
                       static_cast<double>(unit.offsets.size()));
          ++total_units;
        }
      }
      bool seeded = true;
      for (const RunningStats& s : stats) seeded = seeded && s.Count() >= 2;
      if (seeded && total_units >= 15 && combined_moe() <= 0.05) break;
      if (total_units > 100000) break;
    }
    proportional_hours.Add(annotator.ElapsedHours());
  }
  std::printf("%-16s %14s\n", "allocation", "time (h)");
  bench::Rule();
  std::printf("%-16s %14s\n", "Neyman", bench::MeanStd(neyman_hours).c_str());
  std::printf("%-16s %14s\n", "proportional",
              bench::MeanStd(proportional_hours).c_str());
  std::printf("Finding: after cum-sqrt(F) size stratification the residual "
              "per-stratum variances are already\nsimilar, so Neyman and "
              "proportional allocation tie — the stratification itself, not "
              "the\nallocation rule, carries the Table 7 gains.\n");
}

// --- E: annotator noise. --------------------------------------------------------
void AblationNoise(const Dataset& nell, int trials, uint64_t seed) {
  bench::Banner("Ablation E: annotator label noise (NELL, TWCS)");
  const double truth = Characterize(nell).gold_accuracy;
  std::printf("%10s %18s %20s\n", "noise", "estimate", "bias vs gold");
  bench::Rule();
  for (const double noise : {0.0, 0.02, 0.05, 0.10}) {
    RunningStats estimates;
    for (int t = 0; t < trials; ++t) {
      EvaluationOptions options;
      options.seed = seed + 7 * t;
      SimulatedAnnotator annotator(
          nell.oracle.get(), kCost,
          {.noise_rate = noise, .seed = seed + 1000 + t});
      estimates.Add(bench::RunDesign("twcs", nell.View(), &annotator, options)
                        .estimate.mean);
    }
    std::printf("%9.0f%% %18s %19.1f%%\n", noise * 100.0,
                bench::MeanStdPercent(estimates).c_str(),
                (estimates.Mean() - truth) * 100.0);
  }
  std::printf("Expected: symmetric flips pull the estimate toward 50%% by "
              "~noise*(2*acc-1);\nthe framework measures the labels it is "
              "given — crowd quality is a separate concern.\n");
}

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();
  const int trials = bench::Trials(60);

  const Dataset nell = MakeNell(seed);
  AblationSecondStageReplacement(nell, trials, seed);
  AblationBatchSize(nell, trials, seed);
  AblationMinUnits(nell, trials, seed);
  AblationAllocation(bench::Trials(15), seed);
  AblationNoise(nell, trials, seed);
  return 0;
}
