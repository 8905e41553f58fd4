#include <gtest/gtest.h>

#include "core/reservoir_incremental.h"
#include "core/snapshot_baseline.h"
#include "core/stratified_incremental.h"
#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "stats/running_stats.h"
#include "util/rng.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

/// An evolving synthetic KG: base clusters plus update batches appended as
/// independent clusters, with a lazily-labeled oracle kept in sync.
struct EvolvingKg {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0xabcdef};

  /// Appends one update batch; returns {first_cluster, count}.
  std::pair<uint64_t, uint64_t> ApplyBatch(uint64_t num_clusters,
                                           uint32_t max_size, double accuracy,
                                           double spread, Rng& rng) {
    const uint64_t first = population.NumClusters();
    for (uint64_t i = 0; i < num_clusters; ++i) {
      population.Append(1 + static_cast<uint32_t>(rng.UniformIndex(max_size)));
      double p = accuracy + spread * (rng.UniformDouble() - 0.5) * 2.0;
      oracle.Append(p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p));
    }
    return {first, num_clusters};
  }
};

EvaluationOptions DefaultOptions(uint64_t seed) {
  EvaluationOptions options;
  options.seed = seed;
  return options;
}

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2718);
    kg_.ApplyBatch(/*num_clusters=*/1500, /*max_size=*/12, /*accuracy=*/0.9,
                   /*spread=*/0.15, rng);
    rng_ = rng;  // continue the stream for updates.
  }
  EvolvingKg kg_;
  Rng rng_{0};
};

TEST_F(IncrementalTest, ReservoirInitializeConverges) {
  SimulatedAnnotator annotator(&kg_.oracle, kCost);
  ReservoirIncrementalEvaluator rs(&kg_.population, &annotator,
                                   DefaultOptions(1));
  const EvaluationResult report = rs.Initialize();
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.moe, 0.05 + 1e-12);
  const double truth = RealizedOverallAccuracy(kg_.oracle, kg_.population);
  EXPECT_NEAR(report.estimate.mean, truth, 2.5 * 0.05);
  EXPECT_GT(report.annotation_seconds, 0.0);
}

TEST_F(IncrementalTest, ReservoirUpdateTracksEvolvedAccuracy) {
  SimulatedAnnotator annotator(&kg_.oracle, kCost);
  ReservoirIncrementalEvaluator rs(&kg_.population, &annotator,
                                   DefaultOptions(2));
  rs.Initialize();
  // A large, low-accuracy update shifts the overall accuracy down.
  const auto [first, count] =
      kg_.ApplyBatch(800, 12, 0.4, 0.1, rng_);
  const EvaluationResult report = rs.ApplyUpdate(first, count);
  EXPECT_TRUE(report.converged);
  const double truth = RealizedOverallAccuracy(kg_.oracle, kg_.population);
  EXPECT_NEAR(report.estimate.mean, truth, 3.0 * 0.05);
}

TEST_F(IncrementalTest, ReservoirUpdateCheaperThanFromScratch) {
  SimulatedAnnotator annotator(&kg_.oracle, kCost);
  ReservoirIncrementalEvaluator rs(&kg_.population, &annotator,
                                   DefaultOptions(3));
  const EvaluationResult init = rs.Initialize();
  const auto [first, count] = kg_.ApplyBatch(150, 12, 0.9, 0.15, rng_);
  const EvaluationResult update = rs.ApplyUpdate(first, count);
  // A 10% update should cost much less than the initial evaluation
  // (most reservoir slots are retained).
  EXPECT_LT(update.annotation_seconds, init.annotation_seconds * 0.7);
}

TEST_F(IncrementalTest, StratifiedInitializeAndUpdateConverge) {
  SimulatedAnnotator annotator(&kg_.oracle, kCost);
  StratifiedIncrementalEvaluator ss(&kg_.population, &annotator,
                                    DefaultOptions(4));
  const EvaluationResult init = ss.Initialize();
  EXPECT_TRUE(init.converged);
  EXPECT_EQ(ss.NumStrata(), 1u);

  const auto [first, count] = kg_.ApplyBatch(300, 12, 0.6, 0.2, rng_);
  const EvaluationResult update = ss.ApplyUpdate(first, count);
  EXPECT_TRUE(update.converged);
  EXPECT_EQ(ss.NumStrata(), 2u);
  const double truth = RealizedOverallAccuracy(kg_.oracle, kg_.population);
  EXPECT_NEAR(update.estimate.mean, truth, 3.0 * 0.05);
}

TEST_F(IncrementalTest, StratifiedReusesAllPreviousAnnotations) {
  SimulatedAnnotator annotator(&kg_.oracle, kCost);
  StratifiedIncrementalEvaluator ss(&kg_.population, &annotator,
                                    DefaultOptions(5));
  ss.Initialize();
  const uint64_t triples_after_init = annotator.ledger().triples_annotated;
  const auto [first, count] = kg_.ApplyBatch(150, 12, 0.9, 0.15, rng_);
  const EvaluationResult update = ss.ApplyUpdate(first, count);
  // SS only annotates inside the new stratum.
  EXPECT_EQ(update.ledger.triples_annotated,
            annotator.ledger().triples_annotated - triples_after_init);
  EXPECT_GT(update.ledger.triples_annotated, 0u);
  // All new annotations come from delta clusters (index >= first).
  // (Indirectly checked: the update cost is small relative to init.)
  EXPECT_LT(update.annotation_seconds, 0.5 * kCost.SampleCostSeconds(
      triples_after_init, triples_after_init));
}

TEST_F(IncrementalTest, StratifiedCheaperThanReservoirOnAverage) {
  // Section 7.3: SS <= RS in evaluation cost. The gap is widest for large
  // updates — RS must replace ~|R| ln(Nj/Ni) reservoir slots while SS only
  // samples the new stratum to its own (small) variance budget.
  RunningStats rs_cost, ss_cost;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    EvolvingKg kg;
    Rng rng(9000 + seed);
    kg.ApplyBatch(1200, 12, 0.9, 0.15, rng);

    SimulatedAnnotator a1(&kg.oracle, kCost), a2(&kg.oracle, kCost);
    ReservoirIncrementalEvaluator rs(&kg.population, &a1,
                                     DefaultOptions(10 + seed));
    StratifiedIncrementalEvaluator ss(&kg.population, &a2,
                                      DefaultOptions(20 + seed));
    rs.Initialize();
    ss.Initialize();
    // A doubling update with stable accuracy.
    const auto [first, count] = kg.ApplyBatch(1200, 12, 0.95, 0.05, rng);
    rs_cost.Add(rs.ApplyUpdate(first, count).annotation_seconds);
    ss_cost.Add(ss.ApplyUpdate(first, count).annotation_seconds);
  }
  EXPECT_LT(ss_cost.Mean(), rs_cost.Mean());
}

TEST_F(IncrementalTest, SequenceOfUpdatesStaysCalibrated) {
  SimulatedAnnotator a_rs(&kg_.oracle, kCost), a_ss(&kg_.oracle, kCost);
  ReservoirIncrementalEvaluator rs(&kg_.population, &a_rs, DefaultOptions(6));
  StratifiedIncrementalEvaluator ss(&kg_.population, &a_ss, DefaultOptions(7));
  rs.Initialize();
  ss.Initialize();
  for (int batch = 0; batch < 8; ++batch) {
    const auto [first, count] = kg_.ApplyBatch(120, 12, 0.85, 0.2, rng_);
    const EvaluationResult r1 = rs.ApplyUpdate(first, count);
    const EvaluationResult r2 = ss.ApplyUpdate(first, count);
    const double truth = RealizedOverallAccuracy(kg_.oracle, kg_.population);
    EXPECT_NEAR(r1.estimate.mean, truth, 3.5 * 0.05) << "RS batch " << batch;
    EXPECT_NEAR(r2.estimate.mean, truth, 3.5 * 0.05) << "SS batch " << batch;
  }
}

TEST_F(IncrementalTest, SnapshotBaselinePaysFullCostEveryTime) {
  SnapshotBaselineEvaluator baseline(&kg_.oracle, kCost, DefaultOptions(8));
  const EvaluationResult first = baseline.Evaluate(kg_.population);
  const auto [first_cluster, count] = kg_.ApplyBatch(150, 12, 0.9, 0.15, rng_);
  (void)first_cluster;
  (void)count;
  const EvaluationResult second = baseline.Evaluate(kg_.population);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(second.converged);
  // No reuse: the second snapshot costs about as much as the first.
  EXPECT_GT(second.annotation_seconds, first.annotation_seconds * 0.5);
}

TEST_F(IncrementalTest, ReservoirProposition3InsertionsAreLogarithmic) {
  // Prop 3: expected reservoir insertions over a stream of cluster arrivals
  // is O(|R| log(Nj/Ni)). We track evictions+insertions over a doubling
  // stream and check they stay near |R| * ln(2) rather than ~count.
  SimulatedAnnotator annotator(&kg_.oracle, kCost);
  EvaluationOptions options = DefaultOptions(9);
  ReservoirIncrementalEvaluator rs(&kg_.population, &annotator, options);
  rs.Initialize();
  const uint64_t reservoir_size = rs.SampleSize();
  const uint64_t n_before = kg_.population.NumClusters();

  // Double the number of clusters in one update.
  const auto [first, count] = kg_.ApplyBatch(n_before, 12, 0.9, 0.15, rng_);
  const EvaluationResult report = rs.ApplyUpdate(first, count);
  // Newly annotated clusters ~ |R| ln(Nj/Ni) = |R| ln 2 ~ 0.69 |R| in
  // expectation (plus any MoE top-up); far below the delta size.
  EXPECT_LT(report.ledger.entities_identified, reservoir_size * 3);
  EXPECT_LT(report.ledger.entities_identified, count / 10);
}

TEST(IncrementalDeathTest, UpdateBeforeInitializeAborts) {
  ClusterPopulation pop({5, 5});
  const PerClusterBernoulliOracle oracle({0.9, 0.9}, 1);
  SimulatedAnnotator annotator(&oracle, kCost);
  ReservoirIncrementalEvaluator rs(&pop, &annotator, EvaluationOptions{});
  EXPECT_DEATH({ rs.ApplyUpdate(0, 1); }, "Initialize");
  StratifiedIncrementalEvaluator ss(&pop, &annotator, EvaluationOptions{});
  EXPECT_DEATH({ ss.ApplyUpdate(0, 1); }, "Initialize");
}

TEST(IncrementalDeathTest, UpdateMustStartAtFirstUnofferedCluster) {
  // A re-applied batch would offer the base twice (SS: its triple mass
  // counted twice in every weight; RS: a cluster in the reservoir twice),
  // and an overlapping one part of it.
  ClusterPopulation pop(std::vector<uint32_t>(60, 5));
  const PerClusterBernoulliOracle oracle(std::vector<double>(80, 0.9), 1);
  SimulatedAnnotator annotator(&oracle, kCost);
  ReservoirIncrementalEvaluator rs(&pop, &annotator, DefaultOptions(1));
  StratifiedIncrementalEvaluator ss(&pop, &annotator, DefaultOptions(2));
  rs.Initialize();
  ss.Initialize();
  EXPECT_DEATH({ rs.ApplyUpdate(0, 60); }, "first cluster not yet offered");
  EXPECT_DEATH({ ss.ApplyUpdate(0, 60); }, "first cluster not yet offered");
  for (int c = 0; c < 20; ++c) pop.Append(5);
  EXPECT_DEATH({ rs.ApplyUpdate(50, 30); }, "first cluster not yet offered");
  EXPECT_DEATH({ ss.ApplyUpdate(50, 30); }, "first cluster not yet offered");
  // The batch that does start there is accepted.
  const EvaluationResult update = rs.ApplyUpdate(60, 20);
  EXPECT_EQ(update.estimate.num_units, rs.SampleSize());
  EXPECT_EQ(ss.ApplyUpdate(60, 20).design, "SS");
  EXPECT_EQ(rs.ClustersSeen(), 80u);
}

}  // namespace
}  // namespace kgacc
