#include "estimators/estimators.h"

#include <gtest/gtest.h>

#include "labels/truth_oracle.h"
#include "sampling/unit_samplers.h"
#include "stats/running_stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

TEST(SrsEstimatorTest, MeanAndBinomialVariance) {
  SrsEstimator est;
  for (int i = 0; i < 90; ++i) est.Add(true);
  for (int i = 0; i < 10; ++i) est.Add(false);
  const Estimate e = est.Current();
  EXPECT_EQ(e.num_units, 100u);
  EXPECT_DOUBLE_EQ(e.mean, 0.9);
  EXPECT_NEAR(e.variance_of_mean, 0.9 * 0.1 / 100.0, 1e-12);
  EXPECT_NEAR(e.MarginOfError(0.05), 1.959963984540054 * 0.03, 1e-9);
  EXPECT_EQ(est.Successes(), 90u);
}

TEST(SrsEstimatorTest, EmptyIsZero) {
  const Estimate e = SrsEstimator().Current();
  EXPECT_EQ(e.num_units, 0u);
  EXPECT_EQ(e.mean, 0.0);
}

TEST(EstimateTest, CiClampedToUnitInterval) {
  Estimate e{.mean = 0.98, .variance_of_mean = 0.01, .num_units = 10};
  EXPECT_EQ(e.CiUpper(0.05), 1.0);
  EXPECT_GE(e.CiLower(0.05), 0.0);
}

// Monte Carlo unbiasedness of the full estimator/sampler pairs on a
// heterogeneous population.
class EstimatorUnbiasednessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pop_ = MakeTestPopulation(/*num_clusters=*/80, /*max_size=*/12,
                              /*accuracy=*/0.7, /*spread=*/0.3, /*seed=*/404);
    // The realized (not expected) accuracy is what estimators target.
    truth_ = RealizedOverallAccuracy(pop_.oracle, pop_.population);
  }

  double ClusterRealizedAccuracy(uint64_t cluster) const {
    return RealizedClusterAccuracy(pop_.oracle, cluster,
                                   pop_.population.ClusterSize(cluster));
  }

  uint64_t ClusterCorrectCount(uint64_t cluster) const {
    uint64_t correct = 0;
    for (uint64_t o = 0; o < pop_.population.ClusterSize(cluster); ++o) {
      if (pop_.oracle.IsCorrect(TripleRef{cluster, o})) ++correct;
    }
    return correct;
  }

  TestPopulation pop_;
  double truth_ = 0.0;
};

TEST_F(EstimatorUnbiasednessTest, RcsIsUnbiased) {
  Rng rng(1);
  RunningStats trial_means;
  for (int t = 0; t < 1500; ++t) {
    RcsUnitSampler sampler(pop_.population);
    RcsEstimator est(pop_.population.NumClusters(),
                     pop_.population.TotalTriples());
    for (const SampleUnit& draw : sampler.NextBatch(15, rng)) {
      est.AddCluster(ClusterCorrectCount(draw.cluster));
    }
    trial_means.Add(est.Current().mean);
  }
  // Mean of estimates within 4 standard errors of the truth.
  const double se = trial_means.SampleStdDev() / std::sqrt(1500.0);
  EXPECT_NEAR(trial_means.Mean(), truth_, 4.0 * se + 1e-9);
}

TEST_F(EstimatorUnbiasednessTest, WcsIsUnbiased) {
  Rng rng(2);
  RunningStats trial_means;
  for (int t = 0; t < 1500; ++t) {
    WcsUnitSampler sampler(pop_.population);
    WcsEstimator est;
    for (const SampleUnit& draw : sampler.NextBatch(15, rng)) {
      est.AddCluster(ClusterRealizedAccuracy(draw.cluster));
    }
    trial_means.Add(est.Current().mean);
  }
  const double se = trial_means.SampleStdDev() / std::sqrt(1500.0);
  EXPECT_NEAR(trial_means.Mean(), truth_, 4.0 * se + 1e-9);
}

TEST_F(EstimatorUnbiasednessTest, TwcsIsUnbiasedForAnyM) {
  // Proposition 1: E[mu_hat_{w,m}] = mu(G) for every m.
  for (uint64_t m : {1ull, 2ull, 4ull, 8ull}) {
    Rng rng(100 + m);
    RunningStats trial_means;
    for (int t = 0; t < 1200; ++t) {
      TwcsUnitSampler sampler(pop_.population, m);
      TwcsEstimator est;
      for (const SampleUnit& draw : sampler.NextBatch(12, rng)) {
        uint64_t correct = 0;
        for (uint64_t offset : draw.offsets) {
          if (pop_.oracle.IsCorrect(TripleRef{draw.cluster, offset})) ++correct;
        }
        est.AddDraw(correct, draw.offsets.size());
      }
      trial_means.Add(est.Current().mean);
    }
    const double se = trial_means.SampleStdDev() / std::sqrt(1200.0);
    EXPECT_NEAR(trial_means.Mean(), truth_, 4.0 * se + 1e-9) << "m=" << m;
  }
}

TEST_F(EstimatorUnbiasednessTest, WcsHasLowerVarianceThanRcsOnSkewedSizes) {
  // The paper's motivation for WCS (Section 5.2.2): with a wide cluster-size
  // spread, RCS's count-based estimator has much higher variance.
  Rng rng(3);
  RunningStats rcs_means, wcs_means;
  for (int t = 0; t < 800; ++t) {
    RcsUnitSampler rcs(pop_.population);
    RcsEstimator rcs_est(pop_.population.NumClusters(),
                         pop_.population.TotalTriples());
    for (const SampleUnit& draw : rcs.NextBatch(15, rng)) {
      rcs_est.AddCluster(ClusterCorrectCount(draw.cluster));
    }
    rcs_means.Add(rcs_est.Current().mean);

    WcsUnitSampler wcs(pop_.population);
    WcsEstimator wcs_est;
    for (const SampleUnit& draw : wcs.NextBatch(15, rng)) {
      wcs_est.AddCluster(ClusterRealizedAccuracy(draw.cluster));
    }
    wcs_means.Add(wcs_est.Current().mean);
  }
  EXPECT_LT(wcs_means.SampleVariance(), rcs_means.SampleVariance());
}

TEST(TwcsEstimatorDeathTest, InvalidDrawAborts) {
  TwcsEstimator est;
  EXPECT_DEATH({ est.AddDraw(1, 0); }, "Check failed");
  EXPECT_DEATH({ est.AddDraw(3, 2); }, "Check failed");
}

TEST(StratifiedEstimatorTest, CombinesWithWeights) {
  StratifiedEstimator est;
  const size_t h0 = est.AddStratum(0.75);
  const size_t h1 = est.AddStratum(0.25);
  est.UpdateStratum(h0, Estimate{.mean = 0.9, .variance_of_mean = 0.0004,
                                 .num_units = 30});
  est.UpdateStratum(h1, Estimate{.mean = 0.5, .variance_of_mean = 0.0016,
                                 .num_units = 20});
  const Estimate combined = est.Current();
  EXPECT_NEAR(combined.mean, 0.75 * 0.9 + 0.25 * 0.5, 1e-12);
  EXPECT_NEAR(combined.variance_of_mean,
              0.75 * 0.75 * 0.0004 + 0.25 * 0.25 * 0.0016, 1e-12);
  EXPECT_EQ(combined.num_units, 50u);
}

TEST(StratifiedEstimatorTest, SetWeightsRescales) {
  StratifiedEstimator est;
  est.AddStratum(1.0);
  est.UpdateStratum(0, Estimate{.mean = 0.8, .variance_of_mean = 0.0, .num_units = 5});
  est.AddStratum(0.0);
  est.UpdateStratum(1, Estimate{.mean = 0.2, .variance_of_mean = 0.0, .num_units = 5});
  est.SetWeights({0.5, 0.5});
  EXPECT_NEAR(est.Current().mean, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(est.StratumWeight(0), 0.5);
}

TEST(StratifiedEstimatorTest, HomogeneousStrataBeatPooledVariance) {
  // Two strata with very different means but zero within-stratum variance:
  // the stratified variance is 0 while a pooled estimator would see spread.
  StratifiedEstimator est;
  est.AddStratum(0.5);
  est.AddStratum(0.5);
  est.UpdateStratum(0, Estimate{.mean = 1.0, .variance_of_mean = 0.0, .num_units = 10});
  est.UpdateStratum(1, Estimate{.mean = 0.0, .variance_of_mean = 0.0, .num_units = 10});
  EXPECT_DOUBLE_EQ(est.Current().variance_of_mean, 0.0);
  EXPECT_DOUBLE_EQ(est.Current().mean, 0.5);
}

}  // namespace
}  // namespace kgacc
