#include "stats/variance.h"

#include <cmath>

#include <gtest/gtest.h>

#include "kg/cluster_population.h"
#include "labels/gold_labels.h"
#include "sampling/unit_samplers.h"
#include "stats/running_stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace kgacc {
namespace {

ClusterPopulationStats SmallPopulation() {
  // Mixed sizes and accuracies, overall mu = (4*0.5 + 2*1.0 + 6*0.5 + 1*0.0)
  // ... computed by the helper itself.
  ClusterPopulationStats pop;
  pop.sizes = {4, 2, 6, 1};
  pop.accuracies = {0.5, 1.0, 0.5, 0.0};
  return pop;
}

TEST(PopulationStatsTest, TotalsAndWeightedAccuracy) {
  const ClusterPopulationStats pop = SmallPopulation();
  EXPECT_EQ(pop.TotalTriples(), 13u);
  const double expected = (4 * 0.5 + 2 * 1.0 + 6 * 0.5 + 1 * 0.0) / 13.0;
  EXPECT_NEAR(pop.PopulationAccuracy(), expected, 1e-12);
}

TEST(TwcsVarianceTest, LargeMDropsWithinClusterTerm) {
  const ClusterPopulationStats pop = SmallPopulation();
  const double mu = pop.PopulationAccuracy();
  // With m >= max cluster size, only the between-cluster term remains.
  double between = 0.0;
  for (size_t i = 0; i < pop.sizes.size(); ++i) {
    between += static_cast<double>(pop.sizes[i]) *
               (pop.accuracies[i] - mu) * (pop.accuracies[i] - mu);
  }
  between /= static_cast<double>(pop.TotalTriples());
  EXPECT_NEAR(TwcsPerDrawVariance(pop, 6), between, 1e-12);
  EXPECT_NEAR(TwcsPerDrawVariance(pop, 100), between, 1e-12);
}

TEST(TwcsVarianceTest, DecreasesInM) {
  const ClusterPopulationStats pop = SmallPopulation();
  double prev = TwcsPerDrawVariance(pop, 1);
  for (uint64_t m = 2; m <= 8; ++m) {
    const double v = TwcsPerDrawVariance(pop, m);
    EXPECT_LE(v, prev + 1e-12) << "m=" << m;
    prev = v;
  }
}

TEST(TwcsVarianceTest, EstimatorVarianceScalesAsOneOverN) {
  const ClusterPopulationStats pop = SmallPopulation();
  const double v1 = TwcsEstimatorVariance(pop, 3, 1);
  const double v10 = TwcsEstimatorVariance(pop, 3, 10);
  EXPECT_NEAR(v10, v1 / 10.0, 1e-12);
}

TEST(TwcsVarianceTest, MatchesMonteCarloSimulation) {
  // Eq 10 against the empirical variance of the actual TWCS estimator.
  kgacc::testing::TestPopulation tp =
      kgacc::testing::MakeTestPopulation(50, 8, 0.7, 0.3, 77);
  ClusterPopulationStats pop;
  for (uint64_t i = 0; i < tp.population.NumClusters(); ++i) {
    pop.sizes.push_back(tp.population.ClusterSize(i));
    pop.accuracies.push_back(
        RealizedClusterAccuracy(tp.oracle, i, tp.population.ClusterSize(i)));
  }
  const uint64_t m = 3;
  const uint64_t n = 20;
  const double theoretical = TwcsEstimatorVariance(pop, m, n);

  RunningStats estimates;
  Rng rng(123);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    TwcsUnitSampler sampler(tp.population, m);
    RunningStats draws;
    for (const SampleUnit& draw : sampler.NextBatch(n, rng)) {
      uint64_t correct = 0;
      for (uint64_t offset : draw.offsets) {
        if (tp.oracle.IsCorrect(TripleRef{draw.cluster, offset})) ++correct;
      }
      draws.Add(static_cast<double>(correct) /
                static_cast<double>(draw.offsets.size()));
    }
    estimates.Add(draws.Mean());
  }
  // Monte Carlo variance of the estimator should match Eq 10 within ~10%.
  EXPECT_NEAR(estimates.PopulationVariance(), theoretical, 0.12 * theoretical);
}

TEST(SrsVarianceTest, BernoulliVariance) {
  EXPECT_DOUBLE_EQ(SrsPerDrawVariance(0.5), 0.25);
  EXPECT_DOUBLE_EQ(SrsPerDrawVariance(0.0), 0.0);
  EXPECT_DOUBLE_EQ(SrsPerDrawVariance(1.0), 0.0);
  EXPECT_NEAR(SrsPerDrawVariance(0.9), 0.09, 1e-12);
}

TEST(RequiredUnitsTest, TextbookSampleSize) {
  // p(1-p)=0.25, 95% confidence, MoE 5% -> ~385 samples.
  EXPECT_EQ(RequiredUnits(0.25, 0.05, 0.05), 385u);
  // Tighter MoE quadruples the size for half the epsilon.
  EXPECT_EQ(RequiredUnits(0.25, 0.05, 0.025), 1537u);
  // Zero variance still requires at least one unit.
  EXPECT_EQ(RequiredUnits(0.0, 0.05, 0.05), 1u);
}

TEST(TwcsPredictedCostTest, BandOrderingAndMonotonicity) {
  const ClusterPopulationStats pop = SmallPopulation();
  const TwcsCostBand band =
      TwcsPredictedCost(pop, 3, 0.05, 0.05, 45.0, 25.0);
  EXPECT_GT(band.required_draws, 0u);
  EXPECT_GE(band.upper_seconds, band.lower_seconds);
  // Upper bound: n (c1 + m c2); lower: n (c1 + c2).
  EXPECT_NEAR(band.upper_seconds,
              static_cast<double>(band.required_draws) * (45.0 + 3 * 25.0),
              1e-9);
  EXPECT_NEAR(band.lower_seconds,
              static_cast<double>(band.required_draws) * (45.0 + 25.0), 1e-9);
}

}  // namespace
}  // namespace kgacc
