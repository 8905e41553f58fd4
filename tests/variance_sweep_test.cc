// Parameterized validation of the paper's central variance formula (Eq 10):
// for every combination of cluster-size shape, accuracy regime and
// second-stage size m, the theoretical per-draw variance V(m) must match the
// Monte Carlo variance of the actual TWCS estimator.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "sampling/unit_samplers.h"
#include "stats/running_stats.h"
#include "stats/variance.h"
#include "util/rng.h"

namespace kgacc {
namespace {

enum class SizeShape { kUniform, kSkewed, kSingletonHeavy };
enum class AccuracyShape { kHomogeneous, kSizeCorrelated, kBimodal };

std::string ShapeName(SizeShape shape) {
  switch (shape) {
    case SizeShape::kUniform:
      return "UniformSizes";
    case SizeShape::kSkewed:
      return "SkewedSizes";
    case SizeShape::kSingletonHeavy:
      return "SingletonHeavy";
  }
  return "?";
}

std::string ShapeName(AccuracyShape shape) {
  switch (shape) {
    case AccuracyShape::kHomogeneous:
      return "Homogeneous";
    case AccuracyShape::kSizeCorrelated:
      return "SizeCorrelated";
    case AccuracyShape::kBimodal:
      return "Bimodal";
  }
  return "?";
}

struct Population {
  ClusterPopulation view;
  PerClusterBernoulliOracle oracle{0};
};

Population MakePopulation(SizeShape sizes, AccuracyShape accuracies,
                          uint64_t seed) {
  Rng rng(seed);
  Population pop;
  pop.oracle = PerClusterBernoulliOracle(seed ^ 0xfeed);
  for (int i = 0; i < 120; ++i) {
    uint32_t size = 1;
    switch (sizes) {
      case SizeShape::kUniform:
        size = 4 + static_cast<uint32_t>(rng.UniformIndex(4));
        break;
      case SizeShape::kSkewed:
        size = 1 + static_cast<uint32_t>(
                       std::floor(std::pow(40.0, rng.UniformDouble())));
        break;
      case SizeShape::kSingletonHeavy:
        size = rng.Bernoulli(0.8)
                   ? 1
                   : 5 + static_cast<uint32_t>(rng.UniformIndex(10));
        break;
    }
    double p = 0.8;
    switch (accuracies) {
      case AccuracyShape::kHomogeneous:
        p = 0.8;
        break;
      case AccuracyShape::kSizeCorrelated:
        p = std::min(1.0, 0.4 + 0.05 * size);
        break;
      case AccuracyShape::kBimodal:
        p = rng.Bernoulli(0.8) ? 0.95 : 0.2;
        break;
    }
    pop.view.Append(size);
    pop.oracle.Append(p);
  }
  return pop;
}

using SweepParam = std::tuple<SizeShape, AccuracyShape, uint64_t>;

class Eq10Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Eq10Sweep, TheoryMatchesMonteCarlo) {
  const auto [size_shape, accuracy_shape, m] = GetParam();
  const Population pop = MakePopulation(size_shape, accuracy_shape, 7777);

  ClusterPopulationStats stats;
  for (uint64_t c = 0; c < pop.view.NumClusters(); ++c) {
    stats.sizes.push_back(pop.view.ClusterSize(c));
    stats.accuracies.push_back(
        RealizedClusterAccuracy(pop.oracle, c, pop.view.ClusterSize(c)));
  }
  const double theory = TwcsPerDrawVariance(stats, m);

  // Monte Carlo over single draws (n=1): the estimator value of one draw has
  // variance exactly V(m).
  Rng rng(4242);
  TwcsUnitSampler sampler(pop.view, m);
  RunningStats draws;
  const int trials = 60000;
  for (const SampleUnit& draw : sampler.NextBatch(trials, rng)) {
    uint64_t correct = 0;
    for (uint64_t offset : draw.offsets) {
      if (pop.oracle.IsCorrect(TripleRef{draw.cluster, offset})) ++correct;
    }
    draws.Add(static_cast<double>(correct) /
              static_cast<double>(draw.offsets.size()));
  }
  const double mc = draws.PopulationVariance();

  if (theory < 1e-9) {
    EXPECT_LT(mc, 1e-6);
  } else {
    EXPECT_NEAR(mc, theory, 0.06 * theory + 1e-4)
        << ShapeName(size_shape) << "/" << ShapeName(accuracy_shape)
        << " m=" << m;
  }
  // And the mean must be the population accuracy (Prop 1 at draw level).
  EXPECT_NEAR(draws.Mean(), stats.PopulationAccuracy(),
              4.0 * std::sqrt(std::max(theory, 1e-6) / trials));
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  return ShapeName(std::get<0>(info.param)) +
         ShapeName(std::get<1>(info.param)) + "_m" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PopulationShapes, Eq10Sweep,
    ::testing::Combine(::testing::Values(SizeShape::kUniform,
                                         SizeShape::kSkewed,
                                         SizeShape::kSingletonHeavy),
                       ::testing::Values(AccuracyShape::kHomogeneous,
                                         AccuracyShape::kSizeCorrelated,
                                         AccuracyShape::kBimodal),
                       ::testing::Values(1ull, 3ull, 8ull)),
    SweepName);

}  // namespace
}  // namespace kgacc
