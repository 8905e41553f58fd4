#include "stats/stratification.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace kgacc {
namespace {

TEST(CumSqrtFTest, SeparatesBimodalData) {
  // Two well-separated modes around 1 and 100.
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(1.0 + (i % 5));
  for (int i = 0; i < 500; ++i) values.push_back(100.0 + (i % 5));
  const std::vector<double> boundaries = CumulativeSqrtFBoundaries(values, 2);
  ASSERT_EQ(boundaries.size(), 1u);
  // The cut must land in the gap: at or above the low mode's maximum (5)
  // and strictly below the high mode's minimum (100).
  EXPECT_GE(boundaries[0], 5.0);
  EXPECT_LT(boundaries[0], 100.0);
  // Every low-mode value lands in stratum 0, every high-mode value in 1.
  const std::vector<uint32_t> assignment = AssignStrata(values, boundaries);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(assignment[i], values[i] < 50.0 ? 0u : 1u);
  }
}

TEST(CumSqrtFTest, SingleStratumNeedsNoBoundaries) {
  EXPECT_TRUE(CumulativeSqrtFBoundaries({1.0, 2.0, 3.0}, 1).empty());
}

TEST(CumSqrtFTest, DegenerateAllEqual) {
  EXPECT_TRUE(CumulativeSqrtFBoundaries({5.0, 5.0, 5.0}, 3).empty());
}

TEST(CumSqrtFTest, EmptyInput) {
  EXPECT_TRUE(CumulativeSqrtFBoundaries({}, 4).empty());
}

TEST(CumSqrtFTest, BoundariesAreAscending) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i % 97));
  const std::vector<double> boundaries = CumulativeSqrtFBoundaries(values, 4);
  for (size_t i = 1; i < boundaries.size(); ++i) {
    EXPECT_GT(boundaries[i], boundaries[i - 1]);
  }
}

TEST(AssignStrataTest, RespectsBoundaries) {
  const std::vector<double> boundaries = {2.0, 5.0};
  const std::vector<uint32_t> assignment =
      AssignStrata({1.0, 2.0, 3.0, 5.0, 9.0}, boundaries);
  EXPECT_EQ(assignment, (std::vector<uint32_t>{0, 0, 1, 1, 2}));
}

TEST(AssignStrataTest, NoBoundariesMeansOneStratum) {
  const std::vector<uint32_t> assignment = AssignStrata({1.0, 7.0, 3.0}, {});
  EXPECT_EQ(assignment, (std::vector<uint32_t>{0, 0, 0}));
}

TEST(StratifyClustersTest, WeightsSumToOneAndCoverAllClusters) {
  std::vector<double> signal;
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 200; ++i) {
    signal.push_back(static_cast<double>(1 + i % 10));
    sizes.push_back(1 + i % 10);
  }
  const Strata strata = StratifyClusters(signal, sizes, 3);
  ASSERT_GE(strata.NumStrata(), 2u);
  ASSERT_EQ(strata.stratum_of.size(), 200u);
  const std::vector<std::vector<uint32_t>> members =
      testing::StrataMembers(strata);
  double weight_sum = 0.0;
  size_t member_count = 0;
  for (size_t h = 0; h < strata.NumStrata(); ++h) {
    EXPECT_FALSE(members[h].empty());
    weight_sum += strata.weights[h];
    member_count += members[h].size();
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  EXPECT_EQ(member_count, 200u);
}

TEST(StratifyClustersTest, HomogeneousSignalGivesOneStratum) {
  const Strata strata =
      StratifyClusters({3.0, 3.0, 3.0}, {5, 5, 5}, 4);
  EXPECT_EQ(strata.NumStrata(), 1u);
  EXPECT_NEAR(strata.weights[0], 1.0, 1e-12);
}

TEST(StratifyClustersTest, StrataAreHomogeneousOnSeparatedSignal) {
  // Signal values 1 and 50; strata should split exactly on the gap.
  std::vector<double> signal;
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 60; ++i) {
    const bool big = i % 3 == 0;
    signal.push_back(big ? 50.0 : 1.0);
    sizes.push_back(big ? 50 : 1);
  }
  const Strata strata = StratifyClusters(signal, sizes, 2);
  ASSERT_EQ(strata.NumStrata(), 2u);
  // Every member of a stratum shares the same signal value.
  const std::vector<std::vector<uint32_t>> members =
      testing::StrataMembers(strata);
  for (size_t h = 0; h < 2; ++h) {
    const double first = signal[members[h][0]];
    for (uint32_t member : members[h]) {
      EXPECT_DOUBLE_EQ(signal[member], first);
    }
  }
}

TEST(StratifyClustersTest, DroppedStrataAreRenumberedInOrder) {
  // Ids 0 and 2 hold clusters, id 1 none: id 2 becomes stratum 1.
  const Strata strata = internal::CompactStrata(
      {2, 0, 2, 0}, /*stratum_triples=*/{3, 0, 1},
      /*stratum_clusters=*/{2, 0, 2});
  EXPECT_EQ(strata.stratum_of, (std::vector<uint8_t>{1, 0, 1, 0}));
  EXPECT_EQ(strata.weights, (std::vector<double>{0.75, 0.25}));
}

TEST(StratifySizesTest, MatchesStratifyClustersOverTheSizes) {
  // The table path, the per-cluster tail past 2^16 distinct sizes, zero-size
  // clusters, a point mass and every stratum count up to the limit.
  std::vector<std::vector<uint64_t>> cases;
  Rng rng(5);
  std::vector<uint64_t> skewed;
  for (int i = 0; i < 3000; ++i) {
    skewed.push_back(i % 5 == 0 ? 0 : 1 + rng.UniformIndex(40));
  }
  for (uint64_t big : {70000ull, 1000000ull, 5000000000ull}) {
    skewed.push_back(big);
  }
  cases.push_back(skewed);
  cases.push_back({7, 7, 7, 7});
  cases.push_back({0, 0, 5});
  cases.push_back({});
  for (const std::vector<uint64_t>& sizes : cases) {
    std::vector<uint64_t> offsets = {0};
    std::vector<double> signal;
    for (uint64_t size : sizes) {
      offsets.push_back(offsets.back() + size);
      signal.push_back(static_cast<double>(size));
    }
    for (int h : {1, 2, 3, 4, 6, 16, kMaxStrata}) {
      const Strata want = StratifyClusters(signal, sizes, h);
      const Strata got = StratifySizes(offsets, h);
      EXPECT_EQ(got.stratum_of, want.stratum_of) << sizes.size() << "/" << h;
      EXPECT_EQ(got.weights, want.weights) << sizes.size() << "/" << h;
    }
  }
}

}  // namespace
}  // namespace kgacc
