// End-to-end integration tests across datasets + framework, checking the
// reconstructed datasets match Table 3 and the full pipelines reproduce the
// paper's qualitative results.

#include <gtest/gtest.h>

#include "core/optimal_m.h"
#include "core/stratified_incremental.h"
#include "datasets/registry.h"
#include "labels/annotator.h"
#include "stats/running_stats.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::RunDesign;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

TEST(DatasetTest, NellMatchesTable3) {
  const Dataset nell = MakeNell(1);
  const DatasetCharacteristics c = Characterize(nell);
  EXPECT_EQ(c.num_entities, 817u);
  EXPECT_EQ(c.num_triples, 1860u);
  EXPECT_NEAR(c.average_cluster_size, 2.3, 0.05);
  EXPECT_NEAR(c.gold_accuracy, 0.91, 0.025);
}

TEST(DatasetTest, NellHasLongTailClusterSizes) {
  const Dataset nell = MakeNell(2);
  uint64_t below5 = 0;
  for (uint64_t i = 0; i < nell.View().NumClusters(); ++i) {
    if (nell.View().ClusterSize(i) < 5) ++below5;
  }
  // Paper: >98% of NELL clusters have fewer than 5 triples. A Zipf tail
  // with the same mean (2.3) cannot quite reach 98% below 5 (see DESIGN.md);
  // require a strong long tail.
  EXPECT_GT(static_cast<double>(below5) / nell.View().NumClusters(), 0.85);
}

TEST(DatasetTest, YagoMatchesTable3) {
  const Dataset yago = MakeYago(1);
  const DatasetCharacteristics c = Characterize(yago);
  EXPECT_EQ(c.num_entities, 822u);
  EXPECT_EQ(c.num_triples, 1386u);
  EXPECT_NEAR(c.average_cluster_size, 1.7, 0.05);
  EXPECT_NEAR(c.gold_accuracy, 0.99, 0.015);
}

TEST(DatasetTest, MovieMatchesTable3) {
  const Dataset movie = MakeMovie(1);
  const KgView& view = movie.View();
  EXPECT_EQ(view.NumClusters(), 288770u);
  EXPECT_EQ(view.TotalTriples(), 2653870u);
  EXPECT_NEAR(view.AverageClusterSize(), 9.2, 0.05);
  // Expected accuracy from the Bernoulli parameters (cheaper than a full
  // realized sweep, equal in expectation).
  ASSERT_NE(movie.bernoulli, nullptr);
  double weighted = 0.0;
  for (uint64_t i = 0; i < view.NumClusters(); ++i) {
    weighted += view.ClusterSize(i) * movie.bernoulli->ClusterProbability(i);
  }
  EXPECT_NEAR(weighted / view.TotalTriples(), 0.9, 0.02);
}

TEST(DatasetTest, MovieSynBmmCorrelatesSizeWithAccuracy) {
  const Dataset syn = MakeMovieSyn(BmmParams{.k = 3, .c = 0.01, .sigma = 0.1}, 1);
  ASSERT_NE(syn.bernoulli, nullptr);
  // Average accuracy of large clusters must exceed small ones (Fig 3 shape).
  RunningStats small, large;
  for (uint64_t i = 0; i < syn.View().NumClusters(); ++i) {
    const double p = syn.bernoulli->ClusterProbability(i);
    (syn.View().ClusterSize(i) < 3 ? small : large).Add(p);
  }
  EXPECT_GT(large.Mean(), small.Mean() + 0.02);
}

TEST(DatasetTest, MovieFullScalesDown) {
  const Dataset quarter = MakeMovieFull(26000000, 0.9, 1);
  EXPECT_EQ(quarter.View().TotalTriples(), 26000000u);
  EXPECT_NEAR(quarter.View().AverageClusterSize(), 9.0, 0.3);
}

TEST(DatasetTest, RegistryKnowsAllNames) {
  for (const std::string& name : KnownDatasetNames()) {
    if (name == "movie-full") continue;  // skipped here for test runtime.
    const Result<Dataset> dataset = MakeDatasetByName(name, 7);
    EXPECT_TRUE(dataset.ok()) << name;
  }
  EXPECT_TRUE(MakeDatasetByName("freebase", 7).status().IsInvalidArgument());
}

TEST(DatasetTest, DeterministicAcrossCalls) {
  const Dataset a = MakeNell(42);
  const Dataset b = MakeNell(42);
  EXPECT_EQ(Characterize(a).gold_accuracy, Characterize(b).gold_accuracy);
  const Dataset c = MakeNell(43);
  EXPECT_NE(Characterize(a).gold_accuracy, Characterize(c).gold_accuracy);
}

TEST(EndToEndTest, TwcsBeatsSrsOnNell) {
  // Table 5 shape on NELL: TWCS cost < SRS cost, both unbiased. TWCS runs
  // with the Eq 12-optimal m, as the paper's experiments do. The mean cost
  // ratio TWCS/SRS is about 0.84; over 400 seeds its standard error is about
  // 0.02, where over 15 it was about 0.1 and a re-drawn sampler could flip
  // the ordering by chance.
  const Dataset nell = MakeNell(3);
  const double truth = Characterize(nell).gold_accuracy;
  const ClusterPopulationStats stats =
      BuildPopulationStats(nell.View(), *nell.oracle);
  const uint64_t optimal_m =
      ChooseOptimalM(stats, kCost, EvaluationOptions().Alpha(),
                     EvaluationOptions().moe_target)
          .best_m;
  RunningStats srs_cost, twcs_cost, srs_est, twcs_est;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    EvaluationOptions options;
    options.seed = 500 + seed;
    SimulatedAnnotator a1(nell.oracle.get(), kCost);
    SimulatedAnnotator a2(nell.oracle.get(), kCost);
    const EvaluationResult srs = RunDesign("srs", nell.View(), &a1, options);
    options.m = optimal_m;
    const EvaluationResult twcs = RunDesign("twcs", nell.View(), &a2, options);
    srs_cost.Add(srs.annotation_seconds);
    twcs_cost.Add(twcs.annotation_seconds);
    srs_est.Add(srs.estimate.mean);
    twcs_est.Add(twcs.estimate.mean);
  }
  EXPECT_LT(twcs_cost.Mean(), srs_cost.Mean());
  EXPECT_NEAR(srs_est.Mean(), truth, 0.03);
  EXPECT_NEAR(twcs_est.Mean(), truth, 0.03);
}

TEST(EndToEndTest, YagoNeedsVeryFewSamples) {
  // Fig 5-1-c: highly accurate KGs need only a handful of units.
  const Dataset yago = MakeYago(3);
  EvaluationOptions options;
  options.seed = 11;
  SimulatedAnnotator annotator(yago.oracle.get(), kCost);
  const EvaluationResult r =
      RunDesign("twcs", yago.View(), &annotator, options);
  EXPECT_TRUE(r.converged);
  // Stops right at the CLT floor — no oversampling.
  EXPECT_LE(r.estimate.num_units, options.min_units + options.batch_units);
  EXPECT_GT(r.estimate.mean, 0.95);
}

TEST(EndToEndTest, EvolvingMovieScenario) {
  // A miniature Fig 8 scenario on a reduced MOVIE-like graph.
  Rng rng(99);
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle(123);
  for (int i = 0; i < 20000; ++i) {
    population.Append(1 + static_cast<uint32_t>(rng.UniformIndex(18)));
    oracle.Append(0.9);
  }
  SimulatedAnnotator annotator(&oracle, kCost);
  EvaluationOptions options;
  options.seed = 13;
  StratifiedIncrementalEvaluator ss(&population, &annotator, options);
  const EvaluationResult init = ss.Initialize();
  ASSERT_TRUE(init.converged);

  // 10% update at 40% accuracy.
  const uint64_t first = population.NumClusters();
  for (int i = 0; i < 2000; ++i) {
    population.Append(1 + static_cast<uint32_t>(rng.UniformIndex(18)));
    oracle.Append(0.4);
  }
  const EvaluationResult update =
      ss.ApplyUpdate(first, population.NumClusters() - first);
  EXPECT_TRUE(update.converged);
  const double truth = RealizedOverallAccuracy(oracle, population);
  EXPECT_NEAR(update.estimate.mean, truth, 3.0 * 0.05);
  // Update cost is a fraction of the initial cost.
  EXPECT_LT(update.annotation_seconds, init.annotation_seconds);
}

}  // namespace
}  // namespace kgacc
