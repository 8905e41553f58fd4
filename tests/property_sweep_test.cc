// Parameterized property sweeps: estimator correctness and the framework's
// MoE guarantee across the accuracy range, designs and second-stage sizes.

#include <gtest/gtest.h>

#include "stats/running_stats.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::RunDesign;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

// ---------------------------------------------------------------------------
// Sweep 1: every design meets the MoE guarantee at every accuracy level.

enum class Design { kSrs, kRcs, kWcs, kTwcs };

std::string DesignName(Design design) {
  switch (design) {
    case Design::kSrs:
      return "SRS";
    case Design::kRcs:
      return "RCS";
    case Design::kWcs:
      return "WCS";
    case Design::kTwcs:
      return "TWCS";
  }
  return "?";
}

/// The design's DesignRegistry name.
const char* RegistryName(Design design) {
  constexpr const char* kNames[] = {"srs", "rcs", "wcs", "twcs"};
  return kNames[static_cast<int>(design)];
}

using AccuracyDesign = std::tuple<double, Design>;

class MoeGuaranteeSweep : public ::testing::TestWithParam<AccuracyDesign> {};

TEST_P(MoeGuaranteeSweep, ConvergedEstimateSatisfiesTargetAndIsCalibrated) {
  const auto [accuracy, design] = GetParam();
  // Large enough that even RCS — whose count-based estimator needs hundreds
  // of clusters at high accuracy (the paper's Table 5 pathology) — can
  // converge without exhausting the population.
  const TestPopulation pop =
      MakeTestPopulation(1500, 10, accuracy, 0.15,
                         1000 + static_cast<uint64_t>(accuracy * 100));
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);

  RunningStats estimates;
  int converged = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    options.seed = 7000 + t;
    SimulatedAnnotator annotator(&pop.oracle, kCost);
    const EvaluationResult r =
        RunDesign(RegistryName(design), pop.population, &annotator, options);
    if (r.converged) {
      ++converged;
      EXPECT_LE(r.moe, 0.05 + 1e-12) << DesignName(design);
    }
    estimates.Add(r.estimate.mean);
  }
  EXPECT_EQ(converged, trials) << DesignName(design) << " failed to converge";
  // Mean of estimates close to the truth (MoE 5%; 25 trials shrink the
  // tolerance well below that).
  EXPECT_NEAR(estimates.Mean(), truth, 0.035)
      << DesignName(design) << " at accuracy " << accuracy;
}

std::string MoeSweepName(const ::testing::TestParamInfo<AccuracyDesign>& info) {
  return DesignName(std::get<1>(info.param)) + "_acc" +
         std::to_string(static_cast<int>(std::get<0>(info.param) * 100));
}

INSTANTIATE_TEST_SUITE_P(
    AccuracyByDesign, MoeGuaranteeSweep,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(Design::kSrs, Design::kRcs,
                                         Design::kWcs, Design::kTwcs)),
    MoeSweepName);

// ---------------------------------------------------------------------------
// Sweep 2: TWCS stays unbiased for every second-stage size m (Prop 1).

class TwcsMSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwcsMSweep, UnbiasedAtEveryM) {
  const uint64_t m = GetParam();
  const TestPopulation pop = MakeTestPopulation(300, 20, 0.75, 0.3, 555);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);

  RunningStats estimates;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    options.seed = 8000 + t;
    options.m = m;
    SimulatedAnnotator annotator(&pop.oracle, kCost);
    const EvaluationResult r =
        RunDesign("twcs", pop.population, &annotator, options);
    EXPECT_TRUE(r.converged);
    estimates.Add(r.estimate.mean);
  }
  EXPECT_NEAR(estimates.Mean(), truth, 0.035) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(SecondStageSizes, TwcsMSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 20),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "m" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Sweep 3: the MoE target itself is honored across epsilon values.

class EpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweep, AchievedMoeBelowTarget) {
  const double epsilon = GetParam();
  const TestPopulation pop = MakeTestPopulation(600, 12, 0.7, 0.2, 777);
  EvaluationOptions options;
  options.moe_target = epsilon;
  options.seed = 4242;
  SimulatedAnnotator annotator(&pop.oracle, kCost);
  const EvaluationResult r =
      RunDesign("twcs", pop.population, &annotator, options);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.moe, epsilon + 1e-12);
  // Tighter epsilon must not be reported converged with a looser MoE.
  EXPECT_GT(r.estimate.num_units, 0u);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweep,
                         ::testing::Values(0.10, 0.05, 0.03, 0.02),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "eps" + std::to_string(static_cast<int>(
                                              info.param * 100));
                         });

// ---------------------------------------------------------------------------
// Sweep 4: annotator noise degrades the estimate gracefully (the framework
// is a survey over labels; noisy labels shift the target to the noisy rate).

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, EstimateTracksNoisyLabelRate) {
  const double noise = GetParam();
  const TestPopulation pop = MakeTestPopulation(400, 10, 0.9, 0.0, 888);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  // With symmetric flips, the expected observed rate is
  // truth(1-noise) + (1-truth)noise.
  const double expected = truth * (1.0 - noise) + (1.0 - truth) * noise;

  RunningStats estimates;
  for (int t = 0; t < 20; ++t) {
    EvaluationOptions options;
    options.seed = 9000 + t;
    SimulatedAnnotator annotator(&pop.oracle, kCost,
                                 {.noise_rate = noise,
                                  .seed = 9100 + static_cast<uint64_t>(t)});
    estimates.Add(
        RunDesign("twcs", pop.population, &annotator, options).estimate.mean);
  }
  EXPECT_NEAR(estimates.Mean(), expected, 0.04) << "noise=" << noise;
}

INSTANTIATE_TEST_SUITE_P(NoiseRates, NoiseSweep,
                         ::testing::Values(0.0, 0.1, 0.3),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "noise" + std::to_string(static_cast<int>(
                                                info.param * 100));
                         });

}  // namespace
}  // namespace kgacc
