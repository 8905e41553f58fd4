// Save/restore round trips for incremental-evaluation state: a monitoring
// process can stop after any batch and resume later without re-annotating.

#include "core/state_io.h"

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kg/cluster_population.h"
#include "kg/subset_view.h"
#include "labels/synthetic_oracle.h"
#include "util/rng.h"
#include "util/string_util.h"

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

/// Every field of two results except the machine time, which is wall clock.
void ExpectSameResult(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.estimate.mean, b.estimate.mean);
  EXPECT_EQ(a.estimate.variance_of_mean, b.estimate.variance_of_mean);
  EXPECT_EQ(a.estimate.num_units, b.estimate.num_units);
  EXPECT_EQ(a.moe, b.moe);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.suspended, b.suspended);
  EXPECT_EQ(a.ledger.entities_identified, b.ledger.entities_identified);
  EXPECT_EQ(a.ledger.triples_annotated, b.ledger.triples_annotated);
  EXPECT_EQ(a.annotation_seconds, b.annotation_seconds);
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
  // Valid records for the strata [0, 50) and [0, 100), so each row below
  // fails on the field it targets.
  const std::string half = StrFormat(
      "stratum 0 50 %llu 5 0.9 0.1\n",
      static_cast<unsigned long long>(
          SubsetView(kg.population, 0, 50).TotalTriples()));
  const std::string whole = StrFormat(
      "stratum 0 100 %llu 5 0.9 0.1\n",
      static_cast<unsigned long long>(kg.population.TotalTriples()));
  const std::string head = "kgacc-ss-state v2\nrng 1 2 3 4\n";
  ASSERT_TRUE([&] {
    StratifiedIncrementalEvaluator fresh(&kg.population, &annotator,
                                         Options(10));
    std::stringstream in(head + "strata 1\n" + whole + "end\n");
    return RestoreStratifiedState(in, &fresh).ok();
  }());
  for (const std::string& bad : std::vector<std::string>{
           "", "wrong header\n", head + "strata x\n",
           head + "strata 1\nstratum 0 10\n",
           head + "strata 1\nstratum 0 10 30 5 0.9 0.1\n",
           // Record counts are read from the stream: a huge one must fail on
           // the missing records, not throw or allocate up front.
           head + "strata 4000000000000000000\n",
           head + "strata 18446744073709551615\n",
           // A stratum range whose end wraps around 2^64.
           head + "strata 2\n" + whole +
               "stratum 100 18446744073709551615 30 5 0.9 0.1\nend\n",
           // Strata must tile [0, end) in order: an overlap and a gap.
           head + "strata 2\n" + whole + "stratum 50 50 30 5 0.9 0.1\nend\n",
           head + "strata 2\n" + half + "stratum 60 40 30 5 0.9 0.1\nend\n",
           // Moments no accuracies in [0, 1] can have.
           head + "strata 1\n" + whole.substr(0, whole.rfind(" 5 ")) +
               " 5 1.5 0.1\nend\n",
           head + "strata 1\n" + whole.substr(0, whole.rfind(" 5 ")) +
               " 5 0.9 2\nend\n",
           // xoshiro's one invalid state, and a stream record cut short.
           "kgacc-ss-state v2\nrng 0 0 0 0\nstrata 1\n" + whole + "end\n",
           "kgacc-ss-state v2\nrng 1 2 3\nstrata 1\n" + whole + "end\n"}) {
    std::stringstream in(bad);
    EXPECT_FALSE(RestoreStratifiedState(in, &evaluator).ok()) << bad;
  }
  // A v1 file has no stream state: the error names its version.
  std::stringstream v1("kgacc-ss-state v1\nstrata 1\n" + whole + "end\n");
  const Status status = RestoreStratifiedState(v1, &evaluator);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("v1"), std::string::npos) << status.message();
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

TEST(StratifiedStateTest, RestoredUpdateMatchesUninterruptedRun) {
  Rng rng(25);
  EvolvingKg kg;
  kg.Append(1500, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator original(&kg.population, &annotator,
                                          Options(26));
  original.Initialize();
  std::stringstream buffer;
  ASSERT_TRUE(SaveStratifiedState(original, buffer).ok());

  const auto [first, count] = kg.Append(600, 0.6, rng);
  const EvaluationResult uninterrupted = original.ApplyUpdate(first, count);

  SimulatedAnnotator fresh(&kg.oracle, kCost);
  StratifiedIncrementalEvaluator restored(&kg.population, &fresh, Options(26));
  ASSERT_TRUE(RestoreStratifiedState(buffer, &restored).ok());
  ExpectSameResult(restored.ApplyUpdate(first, count), uninterrupted);
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
  const std::string head = "kgacc-rs-state v2\nrng 1 2 3 4\n";
  const std::string race = "offered 50\nhorizon 0.5\n";
  ASSERT_TRUE([&] {
    ReservoirIncrementalEvaluator fresh(&kg.population, &annotator,
                                        Options(14));
    std::stringstream in(head + "capacity 1\n" + race +
                         "arrivals 1\nr 0 0.25\nannotated 0\nend\n");
    return RestoreReservoirState(in, &fresh).ok();
  }());
  for (const std::string& bad : std::vector<std::string>{
           "", head + "capacity 0\n" + race +
                   "arrivals 1\nr 0 0.25\nannotated 0\nend\n",
           // An arrival after the horizon the race was simulated to.
           head + "capacity 1\n" + race +
               "arrivals 1\nr 0 2.0\nannotated 0\nend\n",
           head + "capacity 1\n" + race +
               "arrivals 1\nr 0 0.25\nannotated 1\na 0 5 2\nend\n",
           // Huge record counts fail on the missing records (see above).
           head + "capacity 1\n" + race + "arrivals 18446744073709551615\n",
           head + "capacity 1\n" + race +
               "arrivals 1\nr 0 0.25\nannotated 18446744073709551615\n",
           // A race this population cannot have run.
           head + "capacity 1\noffered 51\nhorizon 0.5\n"
                  "arrivals 1\nr 0 0.25\nannotated 0\nend\n",
           head + "capacity 1\noffered 10\nhorizon 0.5\n"
                  "arrivals 1\nr 20 0.25\nannotated 0\nend\n",
           head + "capacity 2\n" + race +
               "arrivals 2\nr 3 0.25\nr 3 0.3\nannotated 0\nend\n",
           head + "capacity 2\n" + race +
               "arrivals 2\nr 3 0.3\nr 4 0.25\nannotated 0\nend\n",
           head + "capacity 1\noffered 50\nhorizon -1\n"
                  "arrivals 1\nr 0 0.25\nannotated 0\nend\n",
           "kgacc-rs-state v2\nrng 0 0 0 0\ncapacity 1\n" + race +
               "arrivals 1\nr 0 0.25\nannotated 0\nend\n"}) {
    std::stringstream in(bad);
    EXPECT_FALSE(RestoreReservoirState(in, &evaluator).ok()) << bad;
  }
  // A v1 file (one key per cluster, no stream state) names its version.
  std::stringstream v1(
      "kgacc-rs-state v1\ncapacity 1\nentries 1\ne 0 0.5\nannotated 0\n"
      "end\n");
  const Status status = RestoreReservoirState(v1, &evaluator);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("v1"), std::string::npos) << status.message();
}

TEST(ReservoirStateTest, RestoredUpdateMatchesUninterruptedRun) {
  Rng rng(21);
  EvolvingKg kg;
  kg.Append(1500, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator original(&kg.population, &annotator,
                                         Options(22));
  original.Initialize();
  std::stringstream buffer;
  ASSERT_TRUE(SaveReservoirState(original, buffer).ok());

  const auto [first, count] = kg.Append(600, 0.6, rng);
  const EvaluationResult uninterrupted = original.ApplyUpdate(first, count);
  ASSERT_GT(uninterrupted.ledger.entities_identified, 0u);

  SimulatedAnnotator fresh(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator restored(&kg.population, &fresh, Options(22));
  ASSERT_TRUE(RestoreReservoirState(buffer, &restored).ok());
  ExpectSameResult(restored.ApplyUpdate(first, count), uninterrupted);
  EXPECT_EQ(restored.SampleSize(), original.SampleSize());
}

TEST(ReservoirStateTest, MidCampaignStateRoundTrips) {
  // A round that misses the MoE target grows the reservoir; its state must
  // read and save consistently before the next round annotates it.
  Rng rng(27);
  EvolvingKg kg;
  kg.Append(3000, 0.5, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator original(&kg.population, &annotator,
                                         Options(28));
  const std::unique_ptr<Campaign> campaign = original.InitializeCampaign();
  campaign->Step();
  ASSERT_FALSE(campaign->Done());
  const Estimate current = original.CurrentEstimate();
  EXPECT_LT(current.num_units, original.SampleSize());

  std::stringstream buffer;
  ASSERT_TRUE(SaveReservoirState(original, buffer).ok());
  SimulatedAnnotator fresh(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator restored(&kg.population, &fresh, Options(28));
  ASSERT_TRUE(RestoreReservoirState(buffer, &restored).ok());
  EXPECT_EQ(restored.SampleSize(), original.SampleSize());
  EXPECT_EQ(restored.CurrentEstimate().mean, current.mean);
  EXPECT_EQ(restored.CurrentEstimate().num_units, current.num_units);
}

TEST(ReservoirStateTest, SavedStateIsTheReservoirNotThePopulation) {
  Rng rng(23);
  EvolvingKg kg;
  kg.Append(200000, 0.9, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  ReservoirIncrementalEvaluator evaluator(&kg.population, &annotator,
                                          Options(24));
  evaluator.Initialize();
  const auto snapshot = evaluator.Snapshot();
  EXPECT_EQ(snapshot.arrivals.size(), evaluator.SampleSize());
  EXPECT_EQ(snapshot.annotated.size(), evaluator.SampleSize());
  std::stringstream buffer;
  ASSERT_TRUE(SaveReservoirState(evaluator, buffer).ok());
  EXPECT_LT(buffer.str().size(), 100u * 1000u);
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
