// Tests of Proposition 2: two-stage weighted cluster sampling with m = 1 is
// equivalent to simple random sampling — each TWCS draw selects a triple
// uniformly: P(triple) = (M_i / M) * (1 / M_i) = 1 / M.

#include <gtest/gtest.h>

#include "sampling/unit_samplers.h"
#include "stats/running_stats.h"
#include "stats/variance.h"
#include "test_util.h"
#include "util/rng.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

TEST(Proposition2Test, TwcsM1SelectsTriplesUniformly) {
  const ClusterPopulation pop({1, 3, 6});  // 10 triples total.
  TwcsUnitSampler sampler(pop, 1);
  Rng rng(11);
  std::map<std::pair<uint64_t, uint64_t>, int> counts;
  const int n = 100000;
  for (const SampleUnit& draw : sampler.NextBatch(n, rng)) {
    ASSERT_EQ(draw.offsets.size(), 1u);
    ++counts[{draw.cluster, draw.offsets[0]}];
  }
  // Every one of the 10 triples should be hit with probability 1/10.
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [ref, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / n, 0.1, 0.005)
        << "triple (" << ref.first << "," << ref.second << ")";
  }
}

TEST(Proposition2Test, EstimatorDistributionMatchesSrs) {
  const TestPopulation tp = MakeTestPopulation(60, 10, 0.75, 0.25, 2024);
  const double truth = RealizedOverallAccuracy(tp.oracle, tp.population);

  const int trials = 3000;
  const uint64_t draws = 40;
  Rng rng(12);

  // TWCS with m = 1.
  RunningStats twcs_means;
  for (int t = 0; t < trials; ++t) {
    TwcsUnitSampler sampler(tp.population, 1);
    RunningStats per_trial;
    for (const SampleUnit& draw : sampler.NextBatch(draws, rng)) {
      per_trial.Add(tp.oracle.IsCorrect(TripleRef{draw.cluster, draw.offsets[0]})
                        ? 1.0
                        : 0.0);
    }
    twcs_means.Add(per_trial.Mean());
  }

  // SRS with replacement over triples (the same i.i.d. regime TWCS m=1 is in).
  RunningStats srs_means;
  const uint64_t total = tp.population.TotalTriples();
  std::vector<std::pair<uint64_t, uint64_t>> flat;
  for (uint64_t c = 0; c < tp.population.NumClusters(); ++c) {
    for (uint64_t o = 0; o < tp.population.ClusterSize(c); ++o) {
      flat.emplace_back(c, o);
    }
  }
  for (int t = 0; t < trials; ++t) {
    RunningStats per_trial;
    for (uint64_t d = 0; d < draws; ++d) {
      const auto& [c, o] = flat[rng.UniformIndex(total)];
      per_trial.Add(tp.oracle.IsCorrect(TripleRef{c, o}) ? 1.0 : 0.0);
    }
    srs_means.Add(per_trial.Mean());
  }

  // Same expectation (the truth) and matching variance within Monte Carlo
  // tolerance.
  const double se = twcs_means.SampleStdDev() / std::sqrt(trials);
  EXPECT_NEAR(twcs_means.Mean(), truth, 4.0 * se);
  EXPECT_NEAR(srs_means.Mean(), truth, 4.0 * se);
  EXPECT_NEAR(twcs_means.SampleVariance(), srs_means.SampleVariance(),
              0.15 * srs_means.SampleVariance());
}

TEST(Proposition2Test, TheoreticalVarianceAtM1MatchesBernoulli) {
  // For m = 1, V(1) should equal the per-draw Bernoulli variance mu(1-mu)
  // when clusters are internally homogeneous in expectation. We verify the
  // exact identity on a constructed population where each cluster is pure
  // (mu_i in {0,1}): then the within term vanishes and V(m) = mu(1-mu) for
  // every m.
  ClusterPopulationStats pure;
  pure.sizes = {5, 5, 5, 5};
  pure.accuracies = {1.0, 1.0, 1.0, 0.0};
  const double mu = pure.PopulationAccuracy();  // 0.75.
  EXPECT_NEAR(TwcsPerDrawVariance(pure, 1), mu * (1.0 - mu), 1e-12);
  EXPECT_NEAR(TwcsPerDrawVariance(pure, 5), mu * (1.0 - mu), 1e-12);

  // And on a general population, V(1) still equals mu(1-mu): the two-stage
  // draw with m=1 is exactly a uniform triple draw.
  ClusterPopulationStats mixed;
  mixed.sizes = {4, 2, 6, 1};
  mixed.accuracies = {0.5, 1.0, 0.5, 0.0};
  const double mu2 = mixed.PopulationAccuracy();
  EXPECT_NEAR(TwcsPerDrawVariance(mixed, 1), mu2 * (1.0 - mu2), 0.03);
}

}  // namespace
}  // namespace kgacc
