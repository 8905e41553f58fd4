// Tests of the Wilson-interval stopping rule option (CiMethod::kWilson):
// on nearly perfect KGs the Wald plug-in p(1-p)/n collapses to zero MoE
// after a streak of correct labels, stopping at the CLT floor with an
// overconfident interval; Wilson keeps a honest half-width.

#include <gtest/gtest.h>

#include "stats/confidence.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::RunDesign;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

TEST(WilsonStoppingTest, PerfectKgWaldStopsAtFloorWithZeroMoe) {
  TestPopulation perfect = MakeTestPopulation(500, 5, 1.0, 0.0, 1);
  EvaluationOptions options;
  options.seed = 2;
  SimulatedAnnotator annotator(&perfect.oracle, kCost);
  const EvaluationResult r =
      RunDesign("srs", perfect.population, &annotator, options);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.estimate.num_units, options.min_units);
  EXPECT_DOUBLE_EQ(r.moe, 0.0);  // the Wald degeneracy.
}

TEST(WilsonStoppingTest, PerfectKgWilsonKeepsHonestWidth) {
  TestPopulation perfect = MakeTestPopulation(500, 5, 1.0, 0.0, 1);
  EvaluationOptions options;
  options.seed = 2;
  options.srs_ci = CiMethod::kWilson;
  SimulatedAnnotator annotator(&perfect.oracle, kCost);
  const EvaluationResult r =
      RunDesign("srs", perfect.population, &annotator, options);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.moe, 0.0);
  EXPECT_LE(r.moe, options.moe_target + 1e-12);
  // Wilson needs more samples than the floor to shrink below 5% at p=1:
  // half-width of [n/(n+z^2), 1] below 0.05 requires n >= ~35.
  EXPECT_GT(r.estimate.num_units, options.min_units);
  const ConfidenceInterval wilson =
      WilsonInterval(r.estimate.num_units, r.estimate.num_units, 0.05);
  EXPECT_NEAR(r.moe, wilson.Width() / 2.0, 1e-12);
}

TEST(WilsonStoppingTest, MidAccuracyBothMethodsAgree) {
  // Away from the boundary, Wilson ~ Wald and the designs behave alike.
  TestPopulation pop = MakeTestPopulation(800, 5, 0.6, 0.1, 3);
  EvaluationOptions wald_options;
  wald_options.seed = 4;
  EvaluationOptions wilson_options = wald_options;
  wilson_options.srs_ci = CiMethod::kWilson;

  SimulatedAnnotator a1(&pop.oracle, kCost), a2(&pop.oracle, kCost);
  const EvaluationResult wald =
      RunDesign("srs", pop.population, &a1, wald_options);
  const EvaluationResult wilson =
      RunDesign("srs", pop.population, &a2, wilson_options);
  EXPECT_TRUE(wald.converged);
  EXPECT_TRUE(wilson.converged);
  // Sample sizes within ~15% of each other.
  const double ratio = static_cast<double>(wilson.estimate.num_units) /
                       static_cast<double>(wald.estimate.num_units);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(WilsonStoppingTest, CoverageImprovesOnNearPerfectKg) {
  // 98%-accurate population: count how often the reported interval covers
  // the truth under each rule. Wald under-covers badly; Wilson should not.
  TestPopulation pop = MakeTestPopulation(2000, 5, 0.98, 0.0, 5);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  int wald_covered = 0, wilson_covered = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    EvaluationOptions options;
    options.seed = 100 + t;
    {
      SimulatedAnnotator annotator(&pop.oracle, kCost);
      const EvaluationResult r =
          RunDesign("srs", pop.population, &annotator, options);
      if (std::abs(r.estimate.mean - truth) <= r.moe + 1e-12) ++wald_covered;
    }
    {
      options.srs_ci = CiMethod::kWilson;
      SimulatedAnnotator annotator(&pop.oracle, kCost);
      const EvaluationResult r =
          RunDesign("srs", pop.population, &annotator, options);
      // Wilson's interval is asymmetric; use the actual interval.
      const ConfidenceInterval ci = WilsonInterval(
          static_cast<uint64_t>(std::llround(
              r.estimate.mean * static_cast<double>(r.estimate.num_units))),
          r.estimate.num_units, 0.05);
      if (ci.Contains(truth)) ++wilson_covered;
    }
  }
  EXPECT_GT(wilson_covered, wald_covered);
  EXPECT_GE(wilson_covered, trials * 80 / 100);
}

}  // namespace
}  // namespace kgacc
