#include "sampling/srs.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "kg/cluster_population.h"
#include "sampling/unit_samplers.h"

namespace kgacc {
namespace {

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(1);
  for (uint64_t k : {1ull, 5ull, 50ull, 99ull}) {
    const auto sample = SampleIndicesWithoutReplacement(100, k, rng);
    EXPECT_EQ(sample.size(), k);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (uint64_t idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(SampleWithoutReplacementTest, FullPopulationWhenKTooLarge) {
  Rng rng(2);
  const auto sample = SampleIndicesWithoutReplacement(10, 20, rng);
  EXPECT_EQ(sample.size(), 10u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SampleWithoutReplacementTest, KZero) {
  Rng rng(3);
  EXPECT_TRUE(SampleIndicesWithoutReplacement(10, 0, rng).empty());
}

TEST(SampleWithoutReplacementTest, UniformInclusionProbability) {
  Rng rng(4);
  const uint64_t population = 20;
  const uint64_t k = 5;
  std::vector<int> counts(population, 0);
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    for (uint64_t idx : SampleIndicesWithoutReplacement(population, k, rng)) {
      ++counts[idx];
    }
  }
  const double expected = static_cast<double>(k) / population;  // 0.25.
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, expected, 0.015);
  }
}

TEST(SampleWithoutReplacementTest, DenseAndSparsePathsAgreeOnCoverage) {
  // k just above/below the dense-path threshold (population/3).
  Rng rng(5);
  const auto sparse = SampleIndicesWithoutReplacement(1000, 100, rng);
  const auto dense = SampleIndicesWithoutReplacement(1000, 600, rng);
  EXPECT_EQ(sparse.size(), 100u);
  EXPECT_EQ(dense.size(), 600u);
  EXPECT_EQ(std::set<uint64_t>(dense.begin(), dense.end()).size(), 600u);
}

TEST(TriplePrefixIndexTest, MapsGlobalIndices) {
  const ClusterPopulation pop({3, 1, 2});
  const TriplePrefixIndex index(pop);
  EXPECT_EQ(index.TotalTriples(), 6u);
  EXPECT_EQ(index.Lookup(0), (TripleRef{0, 0}));
  EXPECT_EQ(index.Lookup(2), (TripleRef{0, 2}));
  EXPECT_EQ(index.Lookup(3), (TripleRef{1, 0}));
  EXPECT_EQ(index.Lookup(4), (TripleRef{2, 0}));
  EXPECT_EQ(index.Lookup(5), (TripleRef{2, 1}));
}

TEST(TriplePrefixIndexDeathTest, OutOfRangeAborts) {
  const ClusterPopulation pop({2});
  const TriplePrefixIndex index(pop);
  EXPECT_DEATH({ (void)index.Lookup(2); }, "out of range");
}

TEST(TriplePrefixIndexTest, SizeWeightedDrawFrequenciesMatchSizes) {
  // Chi-square goodness of fit of the draw against pi_i = M_i / M.
  const ClusterPopulation pop({1, 2, 3, 4, 10});
  const TriplePrefixIndex index(pop);
  Rng rng(42);
  std::vector<int> counts(pop.NumClusters(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[index.SizeWeightedCluster(rng)];
  double chi_square = 0.0;
  for (uint64_t c = 0; c < pop.NumClusters(); ++c) {
    const double expected = n * static_cast<double>(pop.ClusterSize(c)) /
                            static_cast<double>(pop.TotalTriples());
    chi_square += (counts[c] - expected) * (counts[c] - expected) / expected;
  }
  EXPECT_LT(chi_square, 18.47);  // 4 degrees of freedom, p = 0.001.
}

TEST(TriplePrefixIndexTest, SizeWeightedDrawFromSingleCluster) {
  const ClusterPopulation pop({5});
  const TriplePrefixIndex index(pop);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(index.SizeWeightedCluster(rng), 0u);
}

TEST(TriplePrefixIndexTest, SizeWeightedDrawNeverPicksZeroSizeCluster) {
  const ClusterPopulation pop({0, 1, 0, 1, 0});
  const TriplePrefixIndex index(pop);
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t cluster = index.SizeWeightedCluster(rng);
    EXPECT_TRUE(cluster == 1 || cluster == 3) << cluster;
  }
}

TEST(TriplePrefixIndexTest, SizeWeightedDrawUnderMillionToOneSkew) {
  const ClusterPopulation pop({1, 1000000});
  const TriplePrefixIndex index(pop);
  Rng rng(3);
  int rare = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (index.SizeWeightedCluster(rng) == 0) ++rare;
  }
  EXPECT_LT(rare, 10);  // expected ~0.1 hits.
}

TEST(TriplePrefixIndexTest, SizeWeightedDrawOverLargeUniformPopulation) {
  const ClusterPopulation pop(std::vector<uint32_t>(100000, 1));
  const TriplePrefixIndex index(pop);
  Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t cluster = index.SizeWeightedCluster(rng);
    EXPECT_LT(cluster, 100000u);
    seen.insert(cluster);
  }
  EXPECT_GT(seen.size(), 980u);  // ~995 distinct expected among 1000 draws.
}

TEST(TriplePrefixIndexDeathTest, SizeWeightedDrawFromEmptyPopulationAborts) {
  Rng rng(5);
  const ClusterPopulation none;
  const TriplePrefixIndex empty(none);
  EXPECT_DEATH({ (void)empty.SizeWeightedCluster(rng); }, "empty population");
  const ClusterPopulation zeros({0, 0});
  const TriplePrefixIndex no_triples(zeros);
  EXPECT_DEATH({ (void)no_triples.SizeWeightedCluster(rng); },
               "empty population");
}

TEST(SrsTripleSamplerTest, BatchesAreDisjoint) {
  const ClusterPopulation pop({10, 10, 10});
  SrsUnitSampler sampler(pop);
  Rng rng(6);
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (int batch = 0; batch < 3; ++batch) {
    for (const SampleUnit& unit : sampler.NextBatch(8, rng)) {
      ASSERT_EQ(unit.offsets.size(), 1u);
      EXPECT_TRUE(seen.emplace(unit.cluster, unit.offsets[0]).second)
          << "duplicate draw across batches";
    }
  }
  EXPECT_EQ(seen.size(), 24u);
}

TEST(SrsTripleSamplerTest, ExhaustsPopulationExactly) {
  const ClusterPopulation pop({2, 3});
  SrsUnitSampler sampler(pop);
  Rng rng(7);
  const auto first = sampler.NextBatch(4, rng);
  const auto second = sampler.NextBatch(4, rng);  // only 1 left.
  const auto third = sampler.NextBatch(4, rng);   // empty.
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_TRUE(third.empty());
}

/// DistinctIndexSampler's draw over a node-based set: the same rng calls
/// and the same accept/reject decisions, so the same indices.
class ReferenceDistinctSampler {
 public:
  explicit ReferenceDistinctSampler(uint64_t population)
      : population_(population) {}

  std::vector<uint64_t> Next(uint64_t k, Rng& rng) {
    k = std::min<uint64_t>(k, population_ - drawn_.size());
    std::vector<uint64_t> batch;
    const uint64_t max_attempts = 20 * (k + 8);
    for (uint64_t attempts = 0; batch.size() < k && attempts < max_attempts;
         ++attempts) {
      const uint64_t index = rng.UniformIndex(population_);
      if (drawn_.insert(index).second) batch.push_back(index);
    }
    for (uint64_t index = 0; batch.size() < k && index < population_;
         ++index) {
      if (drawn_.insert(index).second) {
        batch.push_back(index);
        ++scanned_;
      }
    }
    return batch;
  }

  /// Indices the in-order fallback scan supplied.
  uint64_t scanned() const { return scanned_; }

 private:
  uint64_t population_;
  std::unordered_set<uint64_t> drawn_;
  uint64_t scanned_ = 0;
};

TEST(DistinctIndexSamplerTest, DrawsMatchANodeSetAcrossGrowthAndFallback) {
  // Batch sizes that step the flat set across its growth boundaries (8, 16,
  // 32, ... entries), then single draws to exhaustion: once few indices are
  // left, a draw runs out of rejection attempts and the in-order scan
  // supplies it.
  uint64_t scanned = 0;
  for (const uint64_t population : {1ull, 7ull, 64ull, 300ull, 5000ull}) {
    DistinctIndexSampler ours(population);
    ReferenceDistinctSampler reference(population);
    Rng ours_rng(population);
    Rng reference_rng(population);
    std::vector<uint64_t> batches = {1, 6, 1, 9, 15, 17, 33, 64, 129, 500, 3};
    batches.resize(batches.size() + population, 1);
    uint64_t drawn = 0;
    for (const uint64_t k : batches) {
      const std::vector<uint64_t> got = ours.Next(k, ours_rng);
      ASSERT_EQ(got, reference.Next(k, reference_rng))
          << "population " << population << ", after " << drawn;
      drawn += got.size();
    }
    EXPECT_EQ(drawn, population);
    EXPECT_TRUE(ours.Next(4, ours_rng).empty());
    scanned += reference.scanned();
  }
  EXPECT_GT(scanned, 0u);
}

TEST(SrsTripleSamplerTest, RefsAreValidPositions) {
  const ClusterPopulation pop({5, 2, 9, 1});
  SrsUnitSampler sampler(pop);
  Rng rng(8);
  for (const SampleUnit& unit : sampler.NextBatch(17, rng)) {
    ASSERT_LT(unit.cluster, pop.NumClusters());
    ASSERT_EQ(unit.offsets.size(), 1u);
    EXPECT_LT(unit.offsets[0], pop.ClusterSize(unit.cluster));
  }
}

}  // namespace
}  // namespace kgacc
