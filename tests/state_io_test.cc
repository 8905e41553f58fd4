// Save/restore round trips for incremental-evaluation state: a monitoring
// process can stop after any batch and resume later without re-annotating.

#include "core/state_io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "util/rng.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

struct EvolvingKg {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0x99};

  std::pair<uint64_t, uint64_t> Append(uint64_t clusters, double accuracy,
                                       Rng& rng) {
    const uint64_t first = population.NumClusters();
    for (uint64_t i = 0; i < clusters; ++i) {
      population.Append(1 + static_cast<uint32_t>(rng.UniformIndex(10)));
      oracle.Append(accuracy);
    }
    return {first, clusters};
  }
};

EvaluationOptions Options(uint64_t seed) {
  EvaluationOptions options;
  options.seed = seed;
  return options;
}

TEST(StratifiedStateTest, RoundTripPreservesEstimateExactly) {
  Rng rng(1);
  EvolvingKg kg;
  kg.Append(1500, 0.9, rng);

  SimulatedAnnotator annotator(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator original(&kg.population, &annotator,
                                          Options(7));
  original.Initialize();
  const auto [first, count] = kg.Append(300, 0.7, rng);
  const EvaluationResult before = original.ApplyUpdate(first, count);

  std::stringstream buffer;
  ASSERT_TRUE(SaveStratifiedState(original, buffer).ok());

  SimulatedAnnotator annotator2(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator restored(&kg.population, &annotator2,
                                          Options(7));
  ASSERT_TRUE(RestoreStratifiedState(buffer, &restored).ok());
  EXPECT_EQ(restored.NumStrata(), 2u);

  // The next update must produce an estimate consistent with the restored
  // moments: apply an empty-quality-shift batch to both and compare.
  const auto [first2, count2] = kg.Append(100, 0.9, rng);
  const EvaluationResult a = original.ApplyUpdate(first2, count2);
  // The restored evaluator samples with its own (reseeded) randomness, so
  // compare the *reused* part: both carry the same pre-update moments, and
  // both estimates must agree within their MoEs.
  SimulatedAnnotator annotator3(&kg.oracle, kCost);
  (void)annotator3;
  const EvaluationResult b = restored.ApplyUpdate(first2, count2);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_NEAR(a.estimate.mean, b.estimate.mean, a.moe + b.moe);
  EXPECT_NEAR(a.estimate.mean, before.estimate.mean, 0.1);
}

TEST(StratifiedStateTest, RestoredEvaluatorReannotatesNothingOldStrata) {
  Rng rng(2);
  EvolvingKg kg;
  kg.Append(1500, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator original(&kg.population, &annotator,
                                          Options(8));
  original.Initialize();

  std::stringstream buffer;
  ASSERT_TRUE(SaveStratifiedState(original, buffer).ok());

  SimulatedAnnotator fresh(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator restored(&kg.population, &fresh, Options(8));
  ASSERT_TRUE(RestoreStratifiedState(buffer, &restored).ok());

  // An update only annotates inside the new stratum: the fresh annotator's
  // ledger stays bounded by the update's own sampling.
  const auto [first, count] = kg.Append(200, 0.9, rng);
  const EvaluationResult update = restored.ApplyUpdate(first, count);
  EXPECT_TRUE(update.converged);
  EXPECT_EQ(fresh.ledger().triples_annotated, update.ledger.triples_annotated);
  EXPECT_LT(update.ledger.triples_annotated, 200u);
}

TEST(StratifiedStateTest, RejectsDriftedPopulation) {
  Rng rng(3);
  EvolvingKg kg;
  kg.Append(500, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator original(&kg.population, &annotator,
                                          Options(9));
  original.Initialize();
  std::stringstream buffer;
  ASSERT_TRUE(SaveStratifiedState(original, buffer).ok());

  // A *different* population (same cluster count, different sizes).
  Rng rng2(33);
  EvolvingKg other;
  other.Append(500, 0.9, rng2);
  SimulatedAnnotator annotator2(&other.oracle, kCost);
  StratifiedIncrementalEvaluator restored(&other.population, &annotator2,
                                          Options(9));
  EXPECT_TRUE(RestoreStratifiedState(buffer, &restored).IsFailedPrecondition());
}

TEST(StratifiedStateTest, RejectsMalformedStreams) {
  Rng rng(4);
  EvolvingKg kg;
  kg.Append(100, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator evaluator(&kg.population, &annotator,
                                           Options(10));
  for (const char* bad :
       {"", "wrong header\n", "kgacc-ss-state v1\nstrata x\n",
        "kgacc-ss-state v1\nstrata 1\nstratum 0 10\n",
        "kgacc-ss-state v1\nstrata 1\nstratum 0 10 30 5 0.9 0.1\n",
        // Record counts are read from the stream: a huge one must fail on
        // the missing records, not throw or allocate up front.
        "kgacc-ss-state v1\nstrata 4000000000000000000\n",
        "kgacc-ss-state v1\nstrata 18446744073709551615\n",
        // A stratum range whose end wraps around 2^64.
        "kgacc-ss-state v1\nstrata 1\n"
        "stratum 18446744073709551615 2 30 5 0.9 0.1\nend\n"}) {
    std::stringstream in(bad);
    EXPECT_FALSE(RestoreStratifiedState(in, &evaluator).ok()) << bad;
  }
}

TEST(StratifiedStateTest, RestoreOnInitializedEvaluatorFails) {
  Rng rng(5);
  EvolvingKg kg;
  kg.Append(200, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator evaluator(&kg.population, &annotator,
                                           Options(11));
  evaluator.Initialize();
  std::stringstream buffer;
  ASSERT_TRUE(SaveStratifiedState(evaluator, buffer).ok());
  EXPECT_TRUE(
      RestoreStratifiedState(buffer, &evaluator).IsFailedPrecondition());
}

TEST(ReservoirStateTest, RoundTripPreservesSampleAndAnnotations) {
  Rng rng(6);
  EvolvingKg kg;
  kg.Append(2000, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator original(&kg.population, &annotator,
                                         Options(12));
  const EvaluationResult init = original.Initialize();

  std::stringstream buffer;
  ASSERT_TRUE(SaveReservoirState(original, buffer).ok());

  SimulatedAnnotator fresh(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator restored(&kg.population, &fresh, Options(12));
  ASSERT_TRUE(RestoreReservoirState(buffer, &restored).ok());
  EXPECT_EQ(restored.SampleSize(), original.SampleSize());
  EXPECT_EQ(restored.ClustersSeen(), original.ClustersSeen());

  // Applying an update re-estimates from the restored reservoir: retained
  // clusters use the stored annotations (free for the fresh annotator).
  const auto [first, count] = kg.Append(100, 0.9, rng);
  const EvaluationResult update = restored.ApplyUpdate(first, count);
  EXPECT_TRUE(update.converged);
  EXPECT_NEAR(update.estimate.mean, init.estimate.mean, init.moe + update.moe);
  // Only reservoir entrants from the delta were annotated anew.
  EXPECT_LT(fresh.ledger().entities_identified, original.SampleSize() / 2);
}

TEST(ReservoirStateTest, RejectsForeignClusters) {
  Rng rng(7);
  EvolvingKg kg;
  kg.Append(100, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator original(&kg.population, &annotator,
                                         Options(13));
  original.Initialize();
  std::stringstream buffer;
  ASSERT_TRUE(SaveReservoirState(original, buffer).ok());

  // A smaller population cannot host the stored cluster ids.
  EvolvingKg tiny;
  Rng rng2(8);
  tiny.Append(10, 0.9, rng2);
  SimulatedAnnotator annotator2(&tiny.oracle, kCost);
  ReservoirIncrementalEvaluator restored(&tiny.population, &annotator2,
                                         Options(13));
  EXPECT_TRUE(RestoreReservoirState(buffer, &restored).IsFailedPrecondition());
}

TEST(ReservoirStateTest, RejectsMalformedStreams) {
  Rng rng(9);
  EvolvingKg kg;
  kg.Append(50, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator evaluator(&kg.population, &annotator,
                                          Options(14));
  for (const char* bad :
       {"", "kgacc-rs-state v1\ncapacity 0\n",
        "kgacc-rs-state v1\ncapacity 5\nentries 1\ne 0 2.0\nannotated 0\nend\n",
        "kgacc-rs-state v1\ncapacity 1\nentries 1\ne 0 0.5\nannotated 1\n"
        "a 0 5 2\nend\n",
        // Huge record counts fail on the missing records (see above).
        "kgacc-rs-state v1\ncapacity 1\nentries 18446744073709551615\n",
        "kgacc-rs-state v1\ncapacity 1\nentries 1\ne 0 0.5\n"
        "annotated 18446744073709551615\n"}) {
    std::stringstream in(bad);
    EXPECT_FALSE(RestoreReservoirState(in, &evaluator).ok()) << bad;
  }
}

TEST(ReservoirStateTest, SaveBeforeInitializeFails) {
  Rng rng(10);
  EvolvingKg kg;
  kg.Append(50, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator evaluator(&kg.population, &annotator,
                                          Options(15));
  std::stringstream buffer;
  EXPECT_TRUE(SaveReservoirState(evaluator, buffer).IsFailedPrecondition());
}

}  // namespace
}  // namespace kgacc
