// ShardedAnnotationCache: shard routing, once-per-batch accumulator reduce,
// and — the property the concurrent batch path rests on — exactness under
// heavy shard-parallel load with overlapping keys. The stress tests double
// as the ThreadSanitizer workload for CI's tsan job.

#include "util/sharded_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "labels/annotator.h"
#include "labels/synthetic_oracle.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

TEST(ShardedCacheTest, RoundsShardCountUpToPowerOfTwo) {
  EXPECT_EQ(ShardedAnnotationCache(1).num_shards(), 1u);
  EXPECT_EQ(ShardedAnnotationCache(2).num_shards(), 2u);
  EXPECT_EQ(ShardedAnnotationCache(3).num_shards(), 4u);
  EXPECT_EQ(ShardedAnnotationCache(64).num_shards(), 64u);
  EXPECT_EQ(ShardedAnnotationCache(65).num_shards(), 128u);
  EXPECT_EQ(ShardedAnnotationCache(0).num_shards(), 1u);
}

TEST(ShardedCacheTest, ClusterRoutesToOneShard) {
  ShardedAnnotationCache cache(32);
  for (uint64_t cluster = 0; cluster < 10000; ++cluster) {
    const size_t shard = cache.ShardOf(cluster);
    EXPECT_LT(shard, cache.num_shards());
    EXPECT_EQ(cache.ShardOf(cluster), shard);  // pure function.
  }
}

TEST(ShardedCacheTest, DenseClusterIdsSpreadAcrossShards) {
  // The mixer must not stripe sequential ids into a few shards.
  ShardedAnnotationCache cache(16);
  std::vector<uint64_t> hits(cache.num_shards(), 0);
  const uint64_t n = 16000;
  for (uint64_t cluster = 0; cluster < n; ++cluster) {
    ++hits[cache.ShardOf(cluster)];
  }
  const uint64_t expected = n / cache.num_shards();
  for (uint64_t h : hits) {
    EXPECT_GT(h, expected / 2);
    EXPECT_LT(h, expected * 2);
  }
}

TEST(ShardedCacheTest, TotalsReduceAcrossShards) {
  ShardedAnnotationCache cache(4);
  for (uint64_t cluster = 0; cluster < 100; ++cluster) {
    cache.Mark(TripleRef{cluster, 0}).SetLabel(true);
  }
  const AnnotationLedger totals = cache.Totals();
  EXPECT_EQ(totals.entities_identified, 100u);
  EXPECT_EQ(totals.triples_annotated, 100u);
  EXPECT_EQ(cache.NumCachedLabels(), 100u);
  cache.Clear();
  EXPECT_EQ(cache.Totals().entities_identified, 0u);
  EXPECT_EQ(cache.NumCachedLabels(), 0u);
}

TEST(ShardedCacheTest, MarkReportsFirstVisitsAndKeepsLabels) {
  ShardedAnnotationCache cache(2);
  const auto first = cache.Mark(TripleRef{5, 70});
  EXPECT_TRUE(first.new_entity);
  EXPECT_TRUE(first.new_triple);
  EXPECT_FALSE(first.Label());
  first.SetLabel(true);
  const auto again = cache.Mark(TripleRef{5, 70});
  EXPECT_FALSE(again.new_entity);
  EXPECT_FALSE(again.new_triple);
  EXPECT_TRUE(again.Label());
  // The same offset of another cluster, and another offset of this one.
  EXPECT_TRUE(cache.Mark(TripleRef{6, 70}).new_entity);
  const auto inline_word = cache.Mark(TripleRef{5, 6});
  EXPECT_FALSE(inline_word.new_entity);
  EXPECT_TRUE(inline_word.new_triple);
  EXPECT_FALSE(inline_word.Label());
  EXPECT_TRUE(cache.Mark(TripleRef{5, 70}).Label());
  EXPECT_EQ(cache.NumCachedLabels(), 3u);
  EXPECT_EQ(cache.TotalLookups(), 5u);
}

/// Refs over `clusters` clusters with offsets 0-300, so most cross the
/// records' inline word: lone refs interleaving clusters, runs of one
/// cluster (as an engine unit's refs are), and repeats of earlier refs.
std::vector<TripleRef> ModelRefs(uint64_t clusters, uint64_t count,
                                 Rng& rng) {
  std::vector<TripleRef> refs;
  while (refs.size() < count) {
    switch (rng.UniformIndex(3)) {
      case 0:
        refs.push_back({rng.UniformIndex(clusters), rng.UniformIndex(301)});
        break;
      case 1: {
        const uint64_t cluster = rng.UniformIndex(clusters);
        for (uint64_t i = 1 + rng.UniformIndex(70); i > 0; --i) {
          refs.push_back({cluster, rng.UniformIndex(301)});
        }
        break;
      }
      default:
        if (!refs.empty()) refs.push_back(refs[rng.UniformIndex(refs.size())]);
    }
  }
  return refs;
}

TEST(AnnotationBooksModelTest, MatchesASetOfTriples) {
  // Batches of 1,500 refs take the sharded path at 4 threads. 40 clusters
  // of 301 offsets make refs repeat across batches too.
  constexpr uint64_t kClusters = 40;
  PerClusterBernoulliOracle oracle(0xb00c5);
  for (uint64_t c = 0; c < kClusters; ++c) oracle.Append(0.7);
  for (const int threads : {1, 4}) {
    SimulatedAnnotator annotator(&oracle, kCost,
                                 {.annotation_threads = threads});
    Rng rng(61);
    for (int session = 0; session < 2; ++session) {
      std::set<TripleRef> triples;
      std::set<uint64_t> clusters;
      for (int batch = 0; batch < 6; ++batch) {
        const std::vector<TripleRef> refs = ModelRefs(kClusters, 1500, rng);
        std::vector<uint8_t> labels(refs.size());
        annotator.AnnotateBatch(refs, labels.data());
        for (size_t i = 0; i < refs.size(); ++i) {
          ASSERT_EQ(labels[i] != 0, oracle.IsCorrect(refs[i]))
              << threads << " threads, batch " << batch << ", ref " << i;
          triples.insert(refs[i]);
          clusters.insert(refs[i].cluster);
        }
        // Single-ref annotations between batches keep the same books.
        for (const TripleRef& ref : ModelRefs(kClusters, 20, rng)) {
          ASSERT_EQ(annotator.Annotate(ref), oracle.IsCorrect(ref));
          triples.insert(ref);
          clusters.insert(ref.cluster);
        }
        ASSERT_EQ(annotator.ledger().entities_identified, clusters.size());
        ASSERT_EQ(annotator.ledger().triples_annotated, triples.size());
        ASSERT_EQ(annotator.NumCachedLabels(), triples.size());
      }
      annotator.Reset();
      EXPECT_EQ(annotator.ledger().entities_identified, 0u);
      EXPECT_EQ(annotator.ledger().triples_annotated, 0u);
      EXPECT_EQ(annotator.NumCachedLabels(), 0u);
    }
  }
}

/// A crowd-scale workload with heavy overlap: repeats within a batch,
/// repeats across batches, and every cluster's triples fan across offsets —
/// the access pattern that would expose a racy shard partition.
std::vector<TripleRef> OverlappingRefs(const KgView& view, uint64_t count,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<TripleRef> refs;
  refs.reserve(count + count / 3);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t cluster = rng.UniformIndex(view.NumClusters());
    refs.push_back(TripleRef{cluster, rng.UniformIndex(view.ClusterSize(cluster))});
    if (i % 3 == 0) refs.push_back(refs[rng.UniformIndex(refs.size())]);
  }
  return refs;
}

TEST(ShardedCacheStressTest, ManyShardsOverlappingKeysMatchSequential) {
  TestPopulation pop = MakeTestPopulation(5000, 12, 0.85, 0.25, 21);
  SimulatedAnnotator reference(&pop.oracle, kCost,
                               {.noise_rate = 0.15, .seed = 0xcafe});
  SimulatedAnnotator concurrent(&pop.oracle, kCost,
                                {.noise_rate = 0.15,
                                 .seed = 0xcafe,
                                 .annotation_threads = 8,
                                 .annotation_shards = 256});
  // Several batches so cross-batch cache hits are exercised under threads.
  for (uint64_t batch = 0; batch < 4; ++batch) {
    const std::vector<TripleRef> refs =
        OverlappingRefs(pop.population, 20000, 100 + batch);
    std::vector<uint8_t> expected(refs.size()), actual(refs.size());
    reference.AnnotateBatch(std::span<const TripleRef>(refs), expected.data());
    concurrent.AnnotateBatch(std::span<const TripleRef>(refs), actual.data());
    ASSERT_EQ(expected, actual) << "batch " << batch;
    ASSERT_EQ(reference.ledger().entities_identified,
              concurrent.ledger().entities_identified);
    ASSERT_EQ(reference.ledger().triples_annotated,
              concurrent.ledger().triples_annotated);
    ASSERT_DOUBLE_EQ(reference.ElapsedSeconds(), concurrent.ElapsedSeconds());
  }
}

TEST(ShardedCacheStressTest, FewShardsManyThreads) {
  // More workers than shards: some workers own nothing; results unchanged.
  TestPopulation pop = MakeTestPopulation(300, 10, 0.8, 0.2, 22);
  SimulatedAnnotator reference(&pop.oracle, kCost, {.seed = 7});
  SimulatedAnnotator concurrent(&pop.oracle, kCost,
                                {.seed = 7,
                                 .annotation_threads = 8,
                                 .annotation_shards = 2});
  const std::vector<TripleRef> refs =
      OverlappingRefs(pop.population, 10000, 30);
  std::vector<uint8_t> expected(refs.size()), actual(refs.size());
  reference.AnnotateBatch(std::span<const TripleRef>(refs), expected.data());
  concurrent.AnnotateBatch(std::span<const TripleRef>(refs), actual.data());
  EXPECT_EQ(expected, actual);
  EXPECT_DOUBLE_EQ(reference.ElapsedSeconds(), concurrent.ElapsedSeconds());
}

TEST(ShardedCacheStressTest, MixedSingleAndBatchAnnotation) {
  // Interleaving per-triple Annotate with concurrent batches must keep the
  // ledger exact (the single path updates incrementally, batches reduce).
  TestPopulation pop = MakeTestPopulation(1000, 10, 0.8, 0.2, 23);
  SimulatedAnnotator reference(&pop.oracle, kCost, {.seed = 9});
  SimulatedAnnotator mixed(&pop.oracle, kCost,
                           {.seed = 9, .annotation_threads = 4});
  const std::vector<TripleRef> refs =
      OverlappingRefs(pop.population, 8000, 40);
  // Reference: everything per triple.
  for (const TripleRef& ref : refs) reference.Annotate(ref);
  // Mixed: a few singles, one parallel batch over the rest, then singles.
  for (size_t i = 0; i < 100; ++i) mixed.Annotate(refs[i]);
  std::vector<uint8_t> labels(refs.size());
  mixed.AnnotateBatch(std::span<const TripleRef>(refs), labels.data());
  for (size_t i = 0; i < refs.size(); i += 97) {
    EXPECT_EQ(mixed.Annotate(refs[i]), labels[i] != 0);
  }
  EXPECT_EQ(reference.ledger().entities_identified,
            mixed.ledger().entities_identified);
  EXPECT_EQ(reference.ledger().triples_annotated,
            mixed.ledger().triples_annotated);
}

}  // namespace
}  // namespace kgacc
