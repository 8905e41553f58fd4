#include "labels/annotator_pool.h"

#include <gtest/gtest.h>

#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "test_util.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

TEST(AnnotatorPoolTest, CostIsPerMember) {
  const PerClusterBernoulliOracle oracle({1.0}, 1);
  AnnotatorPool pool(&oracle, kCost,
                     {.num_annotators = 3, .noise_rate = 0.0, .seed = 1});
  pool.Annotate(TripleRef{0, 0});
  // Three annotators each identified the entity and validated the triple.
  EXPECT_EQ(pool.ledger().entities_identified, 3u);
  EXPECT_EQ(pool.ledger().triples_annotated, 3u);
  EXPECT_DOUBLE_EQ(pool.ElapsedSeconds(), 3 * (45.0 + 25.0));
}

TEST(AnnotatorPoolTest, EntityIdentificationSharedWithinMember) {
  const PerClusterBernoulliOracle oracle({1.0}, 2);
  AnnotatorPool pool(&oracle, kCost,
                     {.num_annotators = 3, .noise_rate = 0.0, .seed = 2});
  pool.Annotate(TripleRef{0, 0});
  pool.Annotate(TripleRef{0, 1});
  // Each member identifies cluster 0 once, then validates two triples.
  EXPECT_EQ(pool.ledger().entities_identified, 3u);
  EXPECT_EQ(pool.ledger().triples_annotated, 6u);
}

TEST(AnnotatorPoolTest, NoiselessPoolMatchesOracle) {
  const PerClusterBernoulliOracle oracle({0.5}, 3);
  AnnotatorPool pool(&oracle, kCost,
                     {.num_annotators = 3, .noise_rate = 0.0, .seed = 3});
  for (uint64_t offset = 0; offset < 100; ++offset) {
    const TripleRef ref{0, offset};
    EXPECT_EQ(pool.Annotate(ref), oracle.IsCorrect(ref));
  }
}

TEST(AnnotatorPoolTest, MajorityVoteSuppressesNoise) {
  // All triples truly correct; individual annotators flip 20% of labels,
  // the majority of 5 should flip only ~5.8%.
  const PerClusterBernoulliOracle oracle({1.0}, 4);
  AnnotatorPool pool(&oracle, kCost,
                     {.num_annotators = 5, .noise_rate = 0.2, .seed = 4});
  uint64_t flipped = 0;
  const uint64_t n = 20000;
  for (uint64_t offset = 0; offset < n; ++offset) {
    if (!pool.Annotate(TripleRef{0, offset})) ++flipped;
  }
  const double rate = static_cast<double>(flipped) / n;
  EXPECT_NEAR(rate, pool.EffectiveNoiseRate(), 0.01);
  EXPECT_LT(rate, 0.08);  // far below the individual 20%.
}

TEST(AnnotatorPoolTest, EffectiveNoiseRateFormula) {
  const PerClusterBernoulliOracle oracle({1.0}, 5);
  AnnotatorPool three(&oracle, kCost,
                      {.num_annotators = 3, .noise_rate = 0.1, .seed = 5});
  // 3 annotators at p=0.1: 3*p^2*(1-p) + p^3 = 0.027 + 0.001 = 0.028.
  EXPECT_NEAR(three.EffectiveNoiseRate(), 0.028, 1e-9);

  AnnotatorPool one(&oracle, kCost,
                    {.num_annotators = 1, .noise_rate = 0.1, .seed = 6});
  EXPECT_NEAR(one.EffectiveNoiseRate(), 0.1, 1e-12);
}

TEST(AnnotatorPoolTest, CachedMajorityIsStableAndFree) {
  const PerClusterBernoulliOracle oracle({0.5}, 6);
  AnnotatorPool pool(&oracle, kCost,
                     {.num_annotators = 3, .noise_rate = 0.3, .seed = 7});
  const bool first = pool.Annotate(TripleRef{0, 9});
  const double cost = pool.ElapsedSeconds();
  EXPECT_EQ(pool.Annotate(TripleRef{0, 9}), first);
  EXPECT_DOUBLE_EQ(pool.ElapsedSeconds(), cost);
}

TEST(AnnotatorPoolTest, PluggableIntoEvaluator) {
  // The framework runs unchanged on a pool (Annotator interface).
  kgacc::testing::TestPopulation pop =
      kgacc::testing::MakeTestPopulation(300, 8, 0.9, 0.1, 1234);
  AnnotatorPool pool(&pop.oracle, kCost,
                     {.num_annotators = 3, .noise_rate = 0.1, .seed = 8});
  EvaluationOptions options;
  options.seed = 9;
  const EvaluationResult r =
      testing::RunDesign("twcs", pop.population, &pool, options);
  EXPECT_TRUE(r.converged);
  // The pool's redundancy triples the bill relative to its single-annotator
  // ledger shape.
  EXPECT_EQ(r.ledger.entities_identified % 3, 0u);
  EXPECT_EQ(r.ledger.triples_annotated % 3, 0u);
}

TEST(AnnotatorPoolDeathTest, EvenPoolAborts) {
  const PerClusterBernoulliOracle oracle({1.0}, 7);
  EXPECT_DEATH(
      {
        AnnotatorPool pool(&oracle, kCost,
                           {.num_annotators = 2, .noise_rate = 0.0, .seed = 1});
      },
      "odd number");
}

}  // namespace
}  // namespace kgacc
