#include "kg/cluster_population.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"
#include "kg/store/mapped_graph.h"
#include "kg/store/store_writer.h"
#include "kg/subset_view.h"
#include "sampling/srs.h"
#include "test_util.h"

namespace kgacc {
namespace {

std::vector<uint64_t> Column(const KgView& view) {
  const std::span<const uint64_t> offsets = view.TripleOffsets();
  return {offsets.begin(), offsets.end()};
}

TEST(ClusterPopulationTest, ConstructFromSizes) {
  const ClusterPopulation pop({3, 1, 4});
  EXPECT_EQ(pop.NumClusters(), 3u);
  EXPECT_EQ(pop.TotalTriples(), 8u);
  EXPECT_EQ(pop.ClusterSize(0), 3u);
  EXPECT_EQ(pop.ClusterSize(2), 4u);
  EXPECT_DOUBLE_EQ(pop.AverageClusterSize(), 8.0 / 3.0);
}

TEST(ClusterPopulationTest, AppendGrows) {
  ClusterPopulation pop;
  EXPECT_EQ(pop.Append(2), 0u);
  EXPECT_EQ(pop.Append(5), 1u);
  EXPECT_EQ(pop.NumClusters(), 2u);
  EXPECT_EQ(pop.TotalTriples(), 7u);
}

TEST(ClusterPopulationTest, AppendAll) {
  ClusterPopulation pop({1});
  pop.AppendAll({2, 3});
  EXPECT_EQ(pop.NumClusters(), 3u);
  EXPECT_EQ(pop.TotalTriples(), 6u);
}

TEST(ClusterPopulationTest, TripleOffsetsHoldZeroSizeClustersAndAppends) {
  EXPECT_EQ(Column(ClusterPopulation()), (std::vector<uint64_t>{0}));
  ClusterPopulation pop({3, 0, 4, 0});
  EXPECT_EQ(Column(pop), (std::vector<uint64_t>{0, 3, 3, 7, 7}));
  EXPECT_EQ(pop.ClusterSize(1), 0u);
  EXPECT_EQ(pop.ClusterSize(3), 0u);
  pop.Append(2);
  pop.AppendAll({1, 6});
  EXPECT_EQ(Column(pop), (std::vector<uint64_t>{0, 3, 3, 7, 7, 9, 10, 16}));
  EXPECT_EQ(pop.TotalTriples(), 16u);
}

TEST(ClusterPopulationTest, MappedGraphServesTheSameColumn) {
  const std::vector<uint32_t> sizes = {3, 0, 4, 1, 0, 9, 2};
  uint64_t triples = 0;
  for (uint32_t size : sizes) triples += size;
  const std::string path = testing::TempPath("offsets.kgstore");
  {
    Result<StoreWriter> writer =
        StoreWriter::Create(path, sizes.size(), triples);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (size_t c = 0; c < sizes.size(); ++c) {
      ASSERT_TRUE(writer->BeginCluster(static_cast<EntityId>(c)).ok());
      for (uint32_t j = 0; j < sizes[c]; ++j) {
        ASSERT_TRUE(writer->AddTriple(0, ObjectRef::Entity(0)).ok());
      }
    }
    ASSERT_TRUE(writer->Finish().ok());
  }
  Result<MappedGraph> mapped = MappedGraph::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(Column(*mapped), Column(ClusterPopulation(sizes)));
  std::remove(path.c_str());
}

TEST(ClusterPopulationTest, KnowledgeGraphHasNoColumn) {
  KnowledgeGraph graph;
  graph.Add(Triple{1, 2, ObjectRef::Entity(0)});
  graph.Add(Triple{3, 2, ObjectRef::Entity(0)});
  EXPECT_EQ(graph.NumClusters(), 2u);
  EXPECT_TRUE(graph.TripleOffsets().empty());
}

TEST(SubsetViewTest, MapsLocalToParent) {
  const ClusterPopulation pop({10, 20, 30, 40});
  const SubsetView subset(pop, 1, 2);
  EXPECT_EQ(subset.NumClusters(), 2u);
  EXPECT_EQ(subset.TotalTriples(), 50u);
  EXPECT_EQ(subset.ClusterSize(0), 20u);
  EXPECT_EQ(subset.ClusterSize(1), 30u);
  EXPECT_EQ(subset.ToParent(0), 1u);
  EXPECT_EQ(subset.ToParent(1), 2u);
  // The parent's subspan: ordinals keep the parent's numbering.
  EXPECT_EQ(Column(subset), (std::vector<uint64_t>{10, 30, 60}));
}

TEST(SubsetViewTest, RangeCoversContiguousSuffix) {
  ClusterPopulation pop({1, 2, 3});
  pop.AppendAll({7, 8});  // an "update batch".
  const SubsetView delta(pop, 3, 2);
  EXPECT_EQ(delta.NumClusters(), 2u);
  EXPECT_EQ(delta.TotalTriples(), 15u);
  EXPECT_EQ(delta.ToParent(0), 3u);
  EXPECT_EQ(delta.ToParent(1), 4u);
}

TEST(SubsetViewTest, EmptySubset) {
  const ClusterPopulation pop({5});
  const SubsetView subset(pop, 1, 0);
  EXPECT_EQ(subset.NumClusters(), 0u);
  EXPECT_EQ(subset.TotalTriples(), 0u);
}

TEST(SubsetViewTest, ParentWithoutAColumnIsSummed) {
  KnowledgeGraph graph;
  for (EntityId subject : {1, 1, 2, 3, 3, 3}) {
    graph.Add(Triple{subject, 0, ObjectRef::Entity(0)});
  }
  const SubsetView subset(graph, 1, 2);
  EXPECT_EQ(subset.TotalTriples(), 4u);
  EXPECT_TRUE(subset.TripleOffsets().empty());
  const TriplePrefixIndex index(subset);
  EXPECT_EQ(index.Lookup(0).cluster, 0u);
  EXPECT_EQ(index.Lookup(1).cluster, 1u);
  EXPECT_EQ(index.Lookup(3).offset, 2u);
}

TEST(SubsetViewTest, KeepsDrawingAfterItsParentReallocates) {
  // SS's base stratum borrows the population's column, and every update
  // batch appends to it. The stratum must re-read the column rather than
  // hold on to the buffer an Append freed (ASan reports the stale read).
  ClusterPopulation pop({4, 0, 2, 7, 1});
  const SubsetView base(pop, 0, pop.NumClusters());
  const TriplePrefixIndex index(base);
  const uint64_t* before = pop.TripleOffsets().data();
  while (pop.TripleOffsets().data() == before) pop.Append(3);
  const SubsetView update(pop, 5, pop.NumClusters() - 5);
  const TriplePrefixIndex update_index(update);

  EXPECT_EQ(base.TotalTriples(), 14u);
  EXPECT_EQ(index.TotalTriples(), 14u);
  const std::vector<uint64_t> want = {0, 0, 0, 0, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4};
  for (uint64_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(base.ToParent(index.Lookup(t).cluster), want[t]) << t;
  }
  EXPECT_EQ(update_index.TotalTriples(), 3 * update.NumClusters());
  for (uint64_t t = 0; t < update_index.TotalTriples(); ++t) {
    const TripleRef ref = update_index.Lookup(t);
    EXPECT_EQ(update.ToParent(ref.cluster), 5 + t / 3);
    EXPECT_EQ(ref.offset, t % 3);
  }
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const uint64_t cluster = index.SizeWeightedCluster(rng);
    EXPECT_LT(cluster, 5u);
    EXPECT_GT(pop.ClusterSize(cluster), 0u);
  }
}

TEST(SubsetViewDeathTest, OutOfRangeIndexAborts) {
  const ClusterPopulation pop({5});
  EXPECT_DEATH({ SubsetView subset(pop, 1, 1); }, "Check failed");
}

}  // namespace
}  // namespace kgacc
