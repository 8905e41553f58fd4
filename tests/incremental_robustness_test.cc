// Robustness/edge-path tests for the incremental evaluators: an
// under-budgeted SS base that no update can repair, reservoir capacity
// growth under variance-increasing updates, empty updates, and determinism
// of full evolution runs.

#include <gtest/gtest.h>

#include <sstream>

#include "core/reservoir_incremental.h"
#include "core/state_io.h"
#include "core/stratified_incremental.h"
#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "util/rng.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

struct EvolvingKg {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0x44};

  std::pair<uint64_t, uint64_t> Append(uint64_t clusters, uint32_t max_size,
                                       double accuracy, double spread,
                                       Rng& rng) {
    const uint64_t first = population.NumClusters();
    for (uint64_t i = 0; i < clusters; ++i) {
      population.Append(1 + static_cast<uint32_t>(rng.UniformIndex(max_size)));
      double p = accuracy + spread * (rng.UniformDouble() - 0.5) * 2.0;
      oracle.Append(p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p));
    }
    return {first, clusters};
  }
};

TEST(StratifiedTopUpTest, TopUpRescuesUnderbudgetedBase) {
  // The base evaluation is cut off by a tight per-step budget, leaving high
  // base-stratum variance. A tiny clean delta cannot repair the combined
  // MoE by itself: Algorithm 2 samples only the newest stratum, and SS has
  // no top-up path that routes draws back into the base.
  // Arithmetic of the scenario (m=1, so each draw is a Bernoulli at the
  // 50% base accuracy, per-draw variance 0.25): reaching MoE 5% at 95%
  // needs ~385 base draws. Each step's budget covers ~250 draws, so the
  // init is cut short at MoE ~6%, and the update step's fresh budget only
  // buys draws in the delta.
  Rng rng(99);
  EvolvingKg kg;
  kg.Append(2000, 10, 0.5, 0.0, rng);  // pure coin-flip base.

  EvaluationOptions options;
  options.seed = 5;
  options.m = 1;
  options.max_cost_seconds = 250.0 * (45.0 + 25.0);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator evaluator(&kg.population, &annotator,
                                           options);
  const EvaluationResult init = evaluator.Initialize();
  ASSERT_FALSE(init.converged) << "budget should cut the base short";

  // A small, uniform-quality delta (negligible weight).
  Rng rng2(100);
  const auto [first, count] = kg.Append(50, 10, 1.0, 0.0, rng2);
  const EvaluationResult update = evaluator.ApplyUpdate(first, count);
  EXPECT_FALSE(update.converged)
      << "faithful Algorithm 2 cannot fix old strata from the delta";
}

TEST(ReservoirGrowthTest, VarianceIncreasingUpdateGrowsReservoir) {
  Rng rng(7);
  EvolvingKg kg;
  kg.Append(3000, 10, 0.95, 0.02, rng);  // clean base: small reservoir.

  EvaluationOptions options;
  options.seed = 6;
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator evaluator(&kg.population, &annotator, options);
  const EvaluationResult init = evaluator.Initialize();
  ASSERT_TRUE(init.converged);
  const uint64_t initial_capacity = evaluator.SampleSize();

  // A large, very noisy update doubles the variance: the reservoir must
  // grow (the paper's "run Static Evaluation again" fallback).
  const auto [first, count] = kg.Append(3000, 10, 0.5, 0.5, rng);
  const EvaluationResult update = evaluator.ApplyUpdate(first, count);
  EXPECT_TRUE(update.converged);
  EXPECT_GT(evaluator.SampleSize(), initial_capacity);
  EXPECT_EQ(update.estimate.num_units, evaluator.SampleSize());
}

TEST(ReservoirGrowthTest, CleanUpdateKeepsCapacity) {
  Rng rng(8);
  EvolvingKg kg;
  kg.Append(3000, 10, 0.9, 0.1, rng);
  EvaluationOptions options;
  options.seed = 7;
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator evaluator(&kg.population, &annotator, options);
  evaluator.Initialize();
  const uint64_t capacity = evaluator.SampleSize();
  const auto [first, count] = kg.Append(300, 10, 0.9, 0.1, rng);
  const EvaluationResult update = evaluator.ApplyUpdate(first, count);
  EXPECT_TRUE(update.converged);
  EXPECT_EQ(evaluator.SampleSize(), capacity);  // fixed-size Algorithm 1 path.
}

TEST(DeterminismTest, FullEvolutionRunsAreReproducible) {
  const auto run = [] {
    Rng rng(11);
    EvolvingKg kg;
    kg.Append(2000, 10, 0.9, 0.1, rng);
    EvaluationOptions options;
    options.seed = 13;
    SimulatedAnnotator a_rs(&kg.oracle, kCost), a_ss(&kg.oracle, kCost);
    ReservoirIncrementalEvaluator rs(&kg.population, &a_rs, options);
    StratifiedIncrementalEvaluator ss(&kg.population, &a_ss, options);
    std::vector<double> estimates = {rs.Initialize().estimate.mean,
                                     ss.Initialize().estimate.mean};
    for (int b = 0; b < 5; ++b) {
      const auto [first, count] = kg.Append(200, 10, 0.85, 0.1, rng);
      estimates.push_back(rs.ApplyUpdate(first, count).estimate.mean);
      estimates.push_back(ss.ApplyUpdate(first, count).estimate.mean);
    }
    return estimates;
  };
  EXPECT_EQ(run(), run());
}

TEST(ReservoirAccountingTest, RetainedClustersAreNeverRecharged) {
  Rng rng(17);
  EvolvingKg kg;
  kg.Append(2000, 10, 0.9, 0.1, rng);
  EvaluationOptions options;
  options.seed = 19;
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator evaluator(&kg.population, &annotator, options);
  evaluator.Initialize();
  const uint64_t triples_after_init = annotator.ledger().triples_annotated;

  // An empty-ish update (tiny, same quality): near-zero new annotation.
  const auto [first, count] = kg.Append(5, 10, 0.9, 0.1, rng);
  const EvaluationResult update = evaluator.ApplyUpdate(first, count);
  EXPECT_LE(update.ledger.triples_annotated,
            annotator.ledger().triples_annotated - triples_after_init + 1);
  EXPECT_LE(update.ledger.entities_identified, 5u + 2u);
}

/// An empty update is a re-evaluation: while the estimate meets the target
/// it annotates nothing and leaves the estimate as it was. The evaluator
/// then takes a real update and a save/restore as if it had not happened:
/// the restored copy's next update matches the original's.
template <typename Method>
void ExpectEmptyUpdateIsANoOp(
    Status (*save)(const Method&, std::ostream&),
    Status (*restore)(std::istream&, Method*)) {
  Rng rng(23);
  EvolvingKg kg;
  kg.Append(2000, 10, 0.9, 0.1, rng);
  EvaluationOptions options;
  options.seed = 29;
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  Method evaluator(&kg.population, &annotator, options);
  const EvaluationResult init = evaluator.Initialize();
  ASSERT_TRUE(init.converged);

  const EvaluationResult empty = evaluator.ApplyUpdate(2000, 0);
  EXPECT_TRUE(empty.converged);
  EXPECT_EQ(empty.estimate.mean, init.estimate.mean);
  EXPECT_EQ(empty.estimate.variance_of_mean, init.estimate.variance_of_mean);
  EXPECT_EQ(empty.ledger.entities_identified, 0u);
  EXPECT_EQ(empty.ledger.triples_annotated, 0u);
  EXPECT_EQ(empty.annotation_seconds, 0.0);

  const auto [first, count] = kg.Append(300, 10, 0.8, 0.1, rng);
  const EvaluationResult update = evaluator.ApplyUpdate(first, count);
  EXPECT_TRUE(update.converged);
  std::stringstream state;
  ASSERT_TRUE(save(evaluator, state).ok());
  SimulatedAnnotator restored_annotator(&kg.oracle, kCost);
  Method restored(&kg.population, &restored_annotator, options);
  const Status restored_status = restore(state, &restored);
  ASSERT_TRUE(restored_status.ok()) << restored_status.ToString();
  EXPECT_EQ(restored.CurrentEstimate().mean, evaluator.CurrentEstimate().mean);

  const auto [next, more] = kg.Append(300, 10, 0.8, 0.1, rng);
  const EvaluationResult original = evaluator.ApplyUpdate(next, more);
  const EvaluationResult resumed = restored.ApplyUpdate(next, more);
  EXPECT_EQ(resumed.estimate.mean, original.estimate.mean);
  EXPECT_EQ(resumed.estimate.variance_of_mean,
            original.estimate.variance_of_mean);
}

TEST(EmptyUpdateTest, StratifiedAddsNoStratumAndAnnotatesNothing) {
  ExpectEmptyUpdateIsANoOp<StratifiedIncrementalEvaluator>(
      SaveStratifiedState, RestoreStratifiedState);
}

TEST(EmptyUpdateTest, ReservoirAnnotatesNothing) {
  ExpectEmptyUpdateIsANoOp<ReservoirIncrementalEvaluator>(
      SaveReservoirState, RestoreReservoirState);
}

}  // namespace
}  // namespace kgacc
