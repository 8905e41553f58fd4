#include "sampling/stratum_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/stratified_source.h"
#include "kg/cluster_population.h"
#include "kg/generator.h"
#include "labels/synthetic_oracle.h"
#include "sampling/unit_samplers.h"
#include "test_util.h"

namespace kgacc {
namespace {

/// One stratum as a view of its member clusters, re-indexed densely: the
/// per-stratum view stratified TWCS drew through before the rank index, kept
/// here as the reference the index must match draw for draw.
class MemberListView : public KgView {
 public:
  MemberListView(const KgView& parent, std::vector<uint32_t> members)
      : parent_(parent), members_(std::move(members)) {
    for (uint32_t c : members_) total_triples_ += parent_.ClusterSize(c);
  }
  uint64_t NumClusters() const override { return members_.size(); }
  uint64_t ClusterSize(uint64_t cluster) const override {
    return parent_.ClusterSize(members_[cluster]);
  }
  uint64_t TotalTriples() const override { return total_triples_; }
  uint64_t ToParent(uint64_t local) const { return members_[local]; }

 private:
  const KgView& parent_;
  std::vector<uint32_t> members_;
  uint64_t total_triples_ = 0;
};

/// The rank index against one TriplePrefixIndex per member-list stratum:
/// the same M_h, the same cluster for (a stride of) every triple t of every
/// stratum, and the same cluster for 2,000 seeded draws per stratum.
void ExpectMatchesReference(const KgView& view, const Strata& strata) {
  ASSERT_GE(strata.NumStrata(), 1u);
  const StratumIndex index(view, strata.stratum_of, strata.NumStrata());
  const std::vector<std::vector<uint32_t>> members =
      testing::StrataMembers(strata);
  for (size_t h = 0; h < strata.NumStrata(); ++h) {
    const MemberListView stratum(view, members[h]);
    const TriplePrefixIndex reference(stratum);
    const uint64_t triples = reference.TotalTriples();
    ASSERT_EQ(index.StratumTriples(h), triples) << "stratum " << h;
    if (triples == 0) continue;
    const uint64_t stride = std::max<uint64_t>(1, triples / 4000);
    for (uint64_t t = 0; t < triples; t += stride) {
      ASSERT_EQ(index.Lookup(h, t),
                stratum.ToParent(reference.Lookup(t).cluster))
          << "stratum " << h << ", triple " << t;
    }
    ASSERT_EQ(index.Lookup(h, triples - 1),
              stratum.ToParent(reference.Lookup(triples - 1).cluster));
    Rng ours(h + 1);
    Rng theirs(h + 1);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(index.SizeWeightedCluster(h, ours),
                stratum.ToParent(reference.SizeWeightedCluster(theirs)))
          << "stratum " << h << ", draw " << i;
    }
  }
}

ClusterPopulation LogNormalPopulation(uint64_t clusters, uint64_t seed) {
  Rng rng(seed);
  return ClusterPopulation(
      GenerateLogNormalSizes(clusters, 1.55, 1.1, 5000, rng));
}

TEST(StratumIndexTest, SizeStrataMatchPerStratumIndexes) {
  const ClusterPopulation pop = LogNormalPopulation(5000, 1);
  for (int h : {1, 2, 4, 7}) {
    SCOPED_TRACE(h);
    ExpectMatchesReference(pop, SizeStrata(pop, h));
  }
}

TEST(StratumIndexTest, OracleStrataMatchPerStratumIndexes) {
  const ClusterPopulation pop = LogNormalPopulation(3000, 2);
  Rng rng(3);
  PerClusterBernoulliOracle oracle(4);
  for (uint64_t c = 0; c < pop.NumClusters(); ++c) {
    oracle.Append(rng.UniformDouble());
  }
  const Strata strata = OracleStrata(pop, oracle, 4);
  ASSERT_GE(strata.NumStrata(), 2u);
  ExpectMatchesReference(pop, strata);
}

TEST(StratumIndexTest, ZeroSizeClustersAreNeverDrawn) {
  std::vector<uint32_t> sizes;
  for (uint32_t c = 0; c < 500; ++c) sizes.push_back(c % 3 == 0 ? 0 : c % 11);
  const ClusterPopulation pop(sizes);
  Strata strata;
  strata.weights = {0.5, 0.5};
  for (uint32_t c = 0; c < sizes.size(); ++c) {
    strata.stratum_of.push_back(static_cast<uint8_t>((c / 7) % 2));
  }
  ExpectMatchesReference(pop, strata);
  const StratumIndex index(pop, strata.stratum_of, 2);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GT(pop.ClusterSize(index.SizeWeightedCluster(i % 2, rng)), 0u);
  }
}

TEST(StratumIndexTest, MillionToOneSkew) {
  std::vector<uint32_t> sizes(300, 1);
  for (uint32_t c : {0u, 64u, 65u, 199u, 299u}) sizes[c] = 1000000;
  const ClusterPopulation pop(sizes);
  ExpectMatchesReference(pop, SizeStrata(pop, 2));
  // Giants and singletons mixed inside each stratum, across blocks.
  Strata mixed;
  mixed.weights = {0.5, 0.5};
  for (uint32_t c = 0; c < sizes.size(); ++c) {
    mixed.stratum_of.push_back(static_cast<uint8_t>(c % 2));
  }
  ExpectMatchesReference(pop, mixed);
}

TEST(StratumIndexTest, OneClusterStrata) {
  const ClusterPopulation pop = LogNormalPopulation(400, 6);
  Strata strata;
  strata.weights = {0.25, 0.25, 0.25, 0.25};
  strata.stratum_of.assign(pop.NumClusters(), 0);
  strata.stratum_of[0] = 1;    // first cluster of the first block.
  strata.stratum_of[130] = 2;  // inside a later block.
  strata.stratum_of[399] = 3;  // the last cluster, in a partial block.
  ExpectMatchesReference(pop, strata);
  const StratumIndex index(pop, strata.stratum_of, 4);
  Rng rng(7);
  EXPECT_EQ(index.SizeWeightedCluster(2, rng), 130u);
  EXPECT_EQ(index.SizeWeightedCluster(3, rng), 399u);
}

TEST(StratumIndexTest, BuildsItsOwnColumnForAViewWithout) {
  const ClusterPopulation pop = LogNormalPopulation(2000, 8);
  const testing::NoColumnView view(pop);
  ASSERT_TRUE(view.TripleOffsets().empty());
  const Strata strata = SizeStrata(view, 4);
  const Strata from_column = SizeStrata(pop, 4);
  EXPECT_EQ(strata.stratum_of, from_column.stratum_of);
  EXPECT_EQ(strata.weights, from_column.weights);
  ExpectMatchesReference(view, strata);
}

TEST(StratumIndexTest, SeedRoundMatchesPerStratumTwcsSamplers) {
  // The source's first batch (min_stratum_units draws per stratum) against
  // the design it replaces: one TwcsUnitSampler per member-list view, with
  // units translated to parent ids, on one shared rng.
  const ClusterPopulation pop = LogNormalPopulation(4000, 9);
  const Strata strata = SizeStrata(pop, 4);
  const uint64_t m = 5;
  const uint64_t per_stratum = 40;
  StratifiedTwcsSource source(pop, strata, m, per_stratum);
  Rng ours(10);
  const std::vector<SampleUnit> batch = source.NextBatch(0, ours);

  std::vector<SampleUnit> want;
  Rng theirs(10);
  const std::vector<std::vector<uint32_t>> members =
      testing::StrataMembers(strata);
  for (size_t h = 0; h < strata.NumStrata(); ++h) {
    const MemberListView stratum(pop, members[h]);
    TwcsUnitSampler sampler(stratum, m);
    for (SampleUnit& unit : sampler.NextBatch(per_stratum, theirs)) {
      unit.cluster = stratum.ToParent(unit.cluster);
      unit.tag = h;
      want.push_back(std::move(unit));
    }
  }
  ASSERT_EQ(batch.size(), want.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].cluster, want[i].cluster) << i;
    EXPECT_EQ(batch[i].offsets, want[i].offsets) << i;
    EXPECT_EQ(batch[i].tag, want[i].tag) << i;
  }
}

TEST(StratumIndexDeathTest, StratumWithoutTriplesAborts) {
  const ClusterPopulation pop({0, 4, 0});
  Strata strata;
  strata.stratum_of = {0, 1, 0};
  strata.weights = {0.0, 1.0};
  const StratumIndex index(pop, strata.stratum_of, 2);
  Rng rng(1);
  EXPECT_DEATH((void)index.SizeWeightedCluster(0, rng), "empty population");
}

TEST(StratumIndexDeathTest, OutOfRangeStratumIdAborts) {
  const ClusterPopulation pop({1, 2});
  EXPECT_DEATH({ StratumIndex index(pop, {0, 2}, 2); },
               "stratum id out of range");
}

}  // namespace
}  // namespace kgacc
