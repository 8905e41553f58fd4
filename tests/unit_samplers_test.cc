#include "sampling/unit_samplers.h"

#include <set>

#include <gtest/gtest.h>

#include "core/design_registry.h"
#include "kg/cluster_population.h"
#include "kg/subset_view.h"
#include "labels/annotator.h"
#include "labels/synthetic_oracle.h"
#include "test_util.h"

namespace kgacc {
namespace {

TEST(RcsSamplerTest, DrawsAllOffsetsOfEachCluster) {
  const ClusterPopulation pop({3, 1, 4});
  RcsUnitSampler sampler(pop);
  Rng rng(1);
  const auto batch = sampler.NextBatch(3, rng);
  ASSERT_EQ(batch.size(), 3u);
  for (const SampleUnit& draw : batch) {
    EXPECT_EQ(draw.offsets.size(), pop.ClusterSize(draw.cluster));
  }
}

TEST(RcsSamplerTest, BatchesDisjointAndExhaust) {
  const ClusterPopulation pop({1, 1, 1, 1, 1});
  RcsUnitSampler sampler(pop);
  Rng rng(2);
  std::set<uint64_t> seen;
  for (const SampleUnit& draw : sampler.NextBatch(3, rng)) {
    EXPECT_TRUE(seen.insert(draw.cluster).second);
  }
  for (const SampleUnit& draw : sampler.NextBatch(3, rng)) {
    EXPECT_TRUE(seen.insert(draw.cluster).second);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(sampler.NextBatch(3, rng).empty());
}

TEST(WcsSamplerTest, FrequenciesProportionalToSize) {
  const ClusterPopulation pop({1, 9});  // 10% vs 90%.
  WcsUnitSampler sampler(pop);
  Rng rng(3);
  int heavy = 0;
  const int n = 50000;
  for (const SampleUnit& draw : sampler.NextBatch(n, rng)) {
    if (draw.cluster == 1) ++heavy;
  }
  EXPECT_NEAR(static_cast<double>(heavy) / n, 0.9, 0.01);
}

TEST(WcsSamplerTest, WithReplacementCanRepeat) {
  const ClusterPopulation pop({1, 1});
  WcsUnitSampler sampler(pop);
  Rng rng(4);
  const auto batch = sampler.NextBatch(50, rng);
  EXPECT_EQ(batch.size(), 50u);  // more draws than clusters -> repeats.
}

TEST(TwcsSamplerTest, SecondStageCapsAtM) {
  const ClusterPopulation pop({2, 10, 30});
  TwcsUnitSampler sampler(pop, 5);
  Rng rng(5);
  for (const SampleUnit& draw : sampler.NextBatch(200, rng)) {
    const uint64_t expected =
        std::min<uint64_t>(5, pop.ClusterSize(draw.cluster));
    EXPECT_EQ(draw.offsets.size(), expected);
    std::set<uint64_t> unique(draw.offsets.begin(), draw.offsets.end());
    EXPECT_EQ(unique.size(), draw.offsets.size()) << "offsets must be distinct";
    for (uint64_t offset : draw.offsets) {
      EXPECT_LT(offset, pop.ClusterSize(draw.cluster));
    }
  }
}

TEST(TwcsSamplerTest, RepeatDrawsGetIndependentSecondStages) {
  const ClusterPopulation pop({100});
  TwcsUnitSampler sampler(pop, 3);
  Rng rng(6);
  const auto batch = sampler.NextBatch(2, rng);
  ASSERT_EQ(batch.size(), 2u);
  // Same cluster drawn twice; offsets should differ with high probability.
  EXPECT_EQ(batch[0].cluster, batch[1].cluster);
  EXPECT_NE(batch[0].offsets, batch[1].offsets);
}

TEST(TwcsSamplerTest, FirstStageIsSizeWeighted) {
  const ClusterPopulation pop({5, 15});  // 25% vs 75%.
  TwcsUnitSampler sampler(pop, 2);
  Rng rng(7);
  int heavy = 0;
  const int n = 40000;
  for (const SampleUnit& draw : sampler.NextBatch(n, rng)) {
    if (draw.cluster == 1) ++heavy;
  }
  EXPECT_NEAR(static_cast<double>(heavy) / n, 0.75, 0.01);
}

/// Forwards every call, TripleOffsets() included, and counts ClusterSize
/// reads.
class CountingView : public KgView {
 public:
  explicit CountingView(const KgView& inner) : inner_(inner) {}
  uint64_t NumClusters() const override { return inner_.NumClusters(); }
  uint64_t ClusterSize(uint64_t cluster) const override {
    ++reads_;
    return inner_.ClusterSize(cluster);
  }
  uint64_t TotalTriples() const override { return inner_.TotalTriples(); }
  std::span<const uint64_t> TripleOffsets() const override {
    return inner_.TripleOffsets();
  }
  uint64_t reads() const { return reads_; }

 private:
  const KgView& inner_;
  mutable uint64_t reads_ = 0;
};

TEST(SamplerSetUpTest, BorrowingTheColumnReadsNoClusterSize) {
  std::vector<uint32_t> sizes;
  for (uint32_t c = 0; c < 10000; ++c) sizes.push_back(1 + c % 17);
  const ClusterPopulation pop(sizes);
  const CountingView view(pop);
  SrsUnitSampler srs(view);
  WcsUnitSampler wcs(view);
  TwcsUnitSampler twcs(view, 5);
  // SS's strata: the base graph, then an update batch.
  const SubsetView base(view, 0, 8000);
  TwcsUnitSampler base_sampler(base, 5);
  const SubsetView update(view, 8000, 2000);
  TwcsUnitSampler update_sampler(update, 5);
  EXPECT_EQ(update.TotalTriples(), pop.TotalTriples() - base.TotalTriples());
  EXPECT_EQ(view.reads(), 0u);
  // Drawing reads the drawn clusters' sizes only.
  Rng rng(8);
  EXPECT_EQ(twcs.NextBatch(25, rng).size(), 25u);
  EXPECT_EQ(update_sampler.NextBatch(25, rng).size(), 25u);
  EXPECT_EQ(srs.NextBatch(25, rng).size(), 25u);
  EXPECT_LE(view.reads(), 50u);
}

TEST(SamplerSetUpTest, AViewWithoutAColumnIsReadOncePerIndex) {
  std::vector<uint32_t> sizes(1000, 3);
  const ClusterPopulation pop(sizes);
  const CountingView counted(pop);
  const testing::NoColumnView view(counted);
  TwcsUnitSampler twcs(view, 5);
  EXPECT_EQ(counted.reads(), 1000u);
  // Its own column serves the same draws as the borrowed one.
  TwcsUnitSampler borrowed(pop, 5);
  Rng a(9), b(9);
  const std::vector<SampleUnit> ours = twcs.NextBatch(200, a);
  const std::vector<SampleUnit> theirs = borrowed.NextBatch(200, b);
  for (size_t i = 0; i < ours.size(); ++i) {
    EXPECT_EQ(ours[i].cluster, theirs[i].cluster);
    EXPECT_EQ(ours[i].offsets, theirs[i].offsets);
  }
}

TEST(SamplerSetUpTest, SizeStratifiedCampaignBuildsOneColumn) {
  // On a view without a column, the size strata and the stratum draws share
  // the one column the campaign builds.
  std::vector<uint32_t> sizes;
  PerClusterBernoulliOracle oracle{3};
  for (uint32_t c = 0; c < 2000; ++c) {
    sizes.push_back(1 + c % 23);
    oracle.Append(0.9);
  }
  const ClusterPopulation pop(sizes);
  const CountingView counted(pop);
  const testing::NoColumnView view(counted);
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};
  SimulatedAnnotator annotator(&oracle, cost);
  EvaluationOptions options;
  options.num_strata = 4;
  const Result<std::unique_ptr<Campaign>> campaign =
      DesignRegistry::Global().MakeCampaign("twcs+strat", view, &annotator,
                                            options);
  ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
  EXPECT_EQ(counted.reads(), 2000u);
}

TEST(TwcsSamplerDeathTest, MZeroAborts) {
  const ClusterPopulation pop({1});
  EXPECT_DEATH({ TwcsUnitSampler sampler(pop, 0); }, "m must be >= 1");
}

}  // namespace
}  // namespace kgacc
