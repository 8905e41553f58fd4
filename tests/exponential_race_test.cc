// Distributional tests for the exponential race behind RS: its ordered
// arrivals are size-proportional sampling without replacement however the
// race got there (a static draw, a grown capacity, or an update merged into
// a base), it always ends, and a cluster without triples never arrives.

#include "sampling/exponential_race.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "core/reservoir_incremental.h"
#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "util/rng.h"

namespace kgacc {
namespace {

using Arrival = ExponentialRace::Arrival;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

// Sizes {1, 2, 3, 4, 10}: M = 20, 20 ordered pairs.
const std::vector<uint32_t> kSizes = {1, 2, 3, 4, 10};
constexpr uint64_t kTrials = 100000;
// The chi-square 0.999 quantile at 19 degrees of freedom.
constexpr double kChiSquare999 = 43.8;

/// Runs `trials` seeded races and returns chi-square of their first two
/// arrivals against size-proportional sampling without replacement,
/// p(a, b) = w_a / M * w_b / (M - w_a).
double OrderedPairChiSquare(
    const std::function<std::array<uint64_t, 2>(Rng&)>& first_two) {
  const size_t n = kSizes.size();
  double total = 0.0;
  for (uint32_t size : kSizes) total += size;
  std::vector<uint64_t> observed(n * n, 0);
  for (uint64_t seed = 0; seed < kTrials; ++seed) {
    Rng rng(HashCombine(seed, 0x7ace));
    const auto [a, b] = first_two(rng);
    ++observed[a * n + b];
  }
  double chi_square = 0.0;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b) {
        EXPECT_EQ(observed[a * n + b], 0u) << "cluster " << a << " twice";
        continue;
      }
      const double expected = static_cast<double>(kTrials) * kSizes[a] /
                              total * kSizes[b] / (total - kSizes[a]);
      const double diff = static_cast<double>(observed[a * n + b]) - expected;
      chi_square += diff * diff / expected;
    }
  }
  return chi_square;
}

/// The race's invariant: arrival times ascend within [0, horizon].
void ExpectConsistent(const ExponentialRace& race) {
  double previous = 0.0;
  for (const Arrival& arrival : race.Arrivals()) {
    ASSERT_LE(previous, arrival.time);
    previous = arrival.time;
  }
  ASSERT_LE(previous, race.Horizon());
}

std::array<uint64_t, 2> FirstTwo(const ExponentialRace& race) {
  ExpectConsistent(race);
  EXPECT_GE(race.Arrivals().size(), 2u);
  return {race.Arrivals()[0].cluster, race.Arrivals()[1].cluster};
}

TEST(ExponentialRaceTest, StaticRaceSamplesProportionalToSize) {
  const ClusterPopulation population(kSizes);
  const double chi_square = OrderedPairChiSquare([&](Rng& rng) {
    ExponentialRace race(population);
    race.Offer(population.NumClusters(), rng);
    race.Grow(2, rng);
    return FirstTwo(race);
  });
  EXPECT_LT(chi_square, kChiSquare999);
}

TEST(ExponentialRaceTest, GrownCapacitySamplesProportionalToSize) {
  const ClusterPopulation population(kSizes);
  const double chi_square = OrderedPairChiSquare([&](Rng& rng) {
    ExponentialRace race(population);
    race.Offer(population.NumClusters(), rng);
    race.Grow(1, rng);
    EXPECT_EQ(race.Arrivals().size(), 1u);
    race.Grow(2, rng);
    return FirstTwo(race);
  });
  EXPECT_LT(chi_square, kChiSquare999);
}

TEST(ExponentialRaceTest, UpdateMergeSamplesProportionalToSize) {
  // A 3-cluster base {1, 2, 3} races to a reservoir of 2 and is cut back to
  // it; the update {4, 10} then races only over the base's horizon.
  const ClusterPopulation population(kSizes);
  const double chi_square = OrderedPairChiSquare([&](Rng& rng) {
    ExponentialRace race(population);
    race.Offer(3, rng);
    race.Grow(2, rng);
    race.Truncate(2);
    race.Offer(2, rng);
    ExpectConsistent(race);
    race.Grow(2, rng);
    const std::array<uint64_t, 2> first_two = FirstTwo(race);
    race.Grow(3, rng);  // later arrivals still queue behind the merge.
    ExpectConsistent(race);
    return first_two;
  });
  EXPECT_LT(chi_square, kChiSquare999);
}

TEST(ExponentialRaceTest, CensusEndsExhausted) {
  ClusterPopulation population;
  Rng sizes(3);
  for (int c = 0; c < 200; ++c) {
    population.Append(1 + static_cast<uint32_t>(sizes.UniformIndex(10)));
  }
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    ExponentialRace race(population);
    race.Offer(population.NumClusters(), rng);
    race.Grow(1000, rng);
    EXPECT_TRUE(race.Exhausted());
    ASSERT_EQ(race.Arrivals().size(), 200u);
    for (size_t i = 1; i < race.Arrivals().size(); ++i) {
      EXPECT_LE(race.Arrivals()[i - 1].time, race.Arrivals()[i].time);
    }
    EXPECT_EQ(race.Horizon(), race.Arrivals().back().time);
  }
}

TEST(ExponentialRaceTest, ExtremeSizeSkewEndsExhausted) {
  // The small cluster holds 1 / (2^31 + 1) of the mass: drawing events until
  // it arrives would take ~2^31 of them.
  const ClusterPopulation population({1, 1u << 31});
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    ExponentialRace race(population);
    race.Offer(2, rng);
    race.Grow(2, rng);
    EXPECT_TRUE(race.Exhausted());
    ASSERT_EQ(race.Arrivals().size(), 2u);
    EXPECT_EQ(race.Arrivals()[0].cluster, 1u);
  }
  // The same skew inside an update.
  const ClusterPopulation grown({1u << 31, 1, 1u << 31, 1});
  Rng rng(5);
  ExponentialRace race(grown);
  race.Offer(2, rng);
  race.Grow(2, rng);
  race.Offer(2, rng);
  race.Grow(4, rng);
  EXPECT_TRUE(race.Exhausted());
  EXPECT_EQ(race.Arrivals().size(), 4u);
}

TEST(ExponentialRaceTest, ZeroSizeClusterNeverArrives) {
  const ClusterPopulation population({0, 3, 0, 5, 0, 0, 2, 0, 4, 0});
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    ExponentialRace race(population);
    race.Offer(6, rng);  // base {0, 3, 0, 5, 0, 0}
    race.Grow(1, rng);
    race.Offer(4, rng);  // update {2, 0, 4, 0}, merged over the horizon.
    race.Grow(100, rng);
    EXPECT_TRUE(race.Exhausted());
    ASSERT_EQ(race.Arrivals().size(), 4u);
    for (const Arrival& arrival : race.Arrivals()) {
      EXPECT_GT(population.ClusterSize(arrival.cluster), 0u);
    }
  }
}

TEST(ExponentialRaceTest, TruncateForgetsLaterArrivals) {
  const ClusterPopulation population(std::vector<uint32_t>(1000, 3));
  Rng rng(11);
  ExponentialRace race(population);
  race.Offer(1000, rng);
  race.Grow(40, rng);
  const std::vector<Arrival> before = race.Arrivals();
  race.Truncate(25);
  ASSERT_EQ(race.Arrivals().size(), 25u);
  EXPECT_EQ(race.Horizon(), before[24].time);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(race.Arrivals()[i].cluster, before[i].cluster);
  }
  EXPECT_FALSE(race.Exhausted());
}

TEST(ExponentialRaceTest, RestoreRejectsImpossibleStates) {
  const ClusterPopulation population({2, 0, 4, 1});
  const auto restore = [&](uint64_t offered, double horizon,
                           std::vector<Arrival> arrivals) {
    ExponentialRace race(population);
    return race.Restore(offered, horizon, std::move(arrivals));
  };
  EXPECT_TRUE(restore(4, 0.5, {{2, 0.1}, {0, 0.3}}).ok());
  EXPECT_FALSE(restore(5, 0.5, {}).ok());                    // beyond N.
  EXPECT_FALSE(restore(2, 0.5, {{2, 0.1}}).ok());            // not offered.
  EXPECT_FALSE(restore(4, 0.5, {{2, 0.1}, {2, 0.3}}).ok());  // twice.
  EXPECT_FALSE(restore(4, 0.5, {{1, 0.1}}).ok());            // zero size.
  EXPECT_FALSE(restore(4, 0.5, {{2, 0.3}, {0, 0.1}}).ok());  // descending.
  EXPECT_FALSE(restore(4, 0.5, {{2, 0.6}}).ok());            // past H.
  EXPECT_FALSE(restore(4, 0.5, {{2, -0.1}}).ok());           // negative.
  EXPECT_FALSE(restore(4, -1.0, {}).ok());
}

TEST(ReservoirRaceTest, ZeroSizeClustersNeverEnterTheReservoir) {
  // One A-Res key per cluster aborted on a cluster without triples.
  std::vector<uint32_t> sizes;
  std::vector<double> accuracies;
  for (int c = 0; c < 600; ++c) {
    sizes.push_back(c % 3 == 0 ? 0 : 1 + c % 7);
    accuracies.push_back(0.8);
  }
  const ClusterPopulation population(sizes);
  const PerClusterBernoulliOracle oracle(accuracies, 9);
  SimulatedAnnotator annotator(&oracle, kCost);
  EvaluationOptions options;
  options.seed = 4;
  ReservoirIncrementalEvaluator rs(&population, &annotator, options);
  const EvaluationResult result = rs.Initialize();
  EXPECT_TRUE(result.converged);
  for (const Arrival& arrival : rs.Snapshot().arrivals) {
    EXPECT_GT(population.ClusterSize(arrival.cluster), 0u);
  }
}

TEST(ReservoirRaceTest, CensusCampaignStopsExhausted) {
  // An unreachable MoE target: the reservoir grows until it holds every
  // cluster, then the campaign stops on exhaustion.
  std::vector<uint32_t> sizes;
  std::vector<double> accuracies;
  for (int c = 0; c < 45; ++c) {
    sizes.push_back(1 + c % 6);
    accuracies.push_back(c % 2 == 0 ? 0.2 : 0.9);
  }
  const ClusterPopulation population(sizes);
  const PerClusterBernoulliOracle oracle(accuracies, 10);
  SimulatedAnnotator annotator(&oracle, kCost);
  EvaluationOptions options;
  options.seed = 5;
  options.moe_target = 1e-6;
  ReservoirIncrementalEvaluator rs(&population, &annotator, options);
  const EvaluationResult result = rs.Initialize();
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.estimate.num_units, 45u);
  EXPECT_EQ(rs.SampleSize(), 45u);
}

}  // namespace
}  // namespace kgacc
