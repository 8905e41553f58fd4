// The four static designs of Section 5 (SRS Eq 5, RCS Eq 7, WCS Eq 8, TWCS
// Eq 9) as the DesignRegistry assembles them: convergence, stopping rules,
// cost accounting and the second-stage size.

#include <gtest/gtest.h>

#include "core/design_registry.h"
#include "core/optimal_m.h"
#include "stats/running_stats.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::RunDesign;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

EvaluationOptions DefaultOptions(uint64_t seed) {
  EvaluationOptions options;
  options.moe_target = 0.05;
  options.confidence = 0.95;
  options.seed = seed;
  return options;
}

// The suite is named for the evaluator class these designs used to run
// through, so its test IDs outlive the class.
class StaticEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pop_ = MakeTestPopulation(500, 15, 0.8, 0.2, 31337);
    truth_ = RealizedOverallAccuracy(pop_.oracle, pop_.population);
  }
  TestPopulation pop_;
  double truth_ = 0.0;
};

TEST_F(StaticEvaluatorTest, AllDesignsConvergeAndSatisfyMoE) {
  SimulatedAnnotator a1(&pop_.oracle, kCost), a2(&pop_.oracle, kCost),
      a3(&pop_.oracle, kCost), a4(&pop_.oracle, kCost);
  for (const EvaluationResult& r :
       {RunDesign("srs", pop_.population, &a1, DefaultOptions(1)),
        RunDesign("rcs", pop_.population, &a2, DefaultOptions(2)),
        RunDesign("wcs", pop_.population, &a3, DefaultOptions(3)),
        RunDesign("twcs", pop_.population, &a4, DefaultOptions(4))}) {
    EXPECT_TRUE(r.converged) << r.design;
    EXPECT_LE(r.moe, 0.05 + 1e-12) << r.design;
    EXPECT_GE(r.estimate.num_units, 30u) << r.design;
    // The point estimate should be within ~2 MoE of the truth (generous).
    EXPECT_NEAR(r.estimate.mean, truth_, 2.5 * 0.05) << r.design;
    EXPECT_GT(r.annotation_seconds, 0.0) << r.design;
    EXPECT_GT(r.rounds, 0u) << r.design;
  }
}

TEST_F(StaticEvaluatorTest, LedgerMatchesCostModel) {
  SimulatedAnnotator annotator(&pop_.oracle, kCost);
  const EvaluationResult r =
      RunDesign("twcs", pop_.population, &annotator, DefaultOptions(5));
  EXPECT_DOUBLE_EQ(r.annotation_seconds,
                   kCost.SampleCostSeconds(r.ledger.entities_identified,
                                           r.ledger.triples_annotated));
}

TEST_F(StaticEvaluatorTest, TwcsCheaperThanSrsOnClusteredPopulation) {
  // The paper's headline: TWCS cuts annotation cost vs SRS. Averaged over
  // several seeds to avoid flakiness.
  RunningStats srs_cost, twcs_cost;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SimulatedAnnotator a1(&pop_.oracle, kCost), a2(&pop_.oracle, kCost);
    srs_cost.Add(RunDesign("srs", pop_.population, &a1,
                           DefaultOptions(100 + seed))
                     .annotation_seconds);
    twcs_cost.Add(RunDesign("twcs", pop_.population, &a2,
                            DefaultOptions(200 + seed))
                      .annotation_seconds);
  }
  EXPECT_LT(twcs_cost.Mean(), srs_cost.Mean());
}

TEST_F(StaticEvaluatorTest, MinUnitsIsRespected) {
  // Nearly perfect KG: MoE is met immediately, but the evaluator must still
  // draw min_units before trusting the CLT.
  TestPopulation perfect = MakeTestPopulation(100, 5, 1.0, 0.0, 1);
  SimulatedAnnotator annotator(&perfect.oracle, kCost);
  EvaluationOptions options = DefaultOptions(6);
  options.min_units = 40;
  const EvaluationResult r =
      RunDesign("twcs", perfect.population, &annotator, options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.estimate.num_units, 40u);
  EXPECT_NEAR(r.estimate.mean, 1.0, 1e-12);
}

TEST_F(StaticEvaluatorTest, CostBudgetStopsEvaluation) {
  SimulatedAnnotator annotator(&pop_.oracle, kCost);
  EvaluationOptions options = DefaultOptions(7);
  options.moe_target = 0.001;          // practically unreachable...
  options.max_cost_seconds = 3600.0;   // ...within one budgeted hour.
  const EvaluationResult r =
      RunDesign("srs", pop_.population, &annotator, options);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.annotation_seconds, 3600.0);
  // One batch of overshoot at most.
  EXPECT_LT(r.annotation_seconds, 3600.0 + 70.0 * (options.batch_units + 1));
}

TEST_F(StaticEvaluatorTest, MaxUnitsStopsEvaluation) {
  SimulatedAnnotator annotator(&pop_.oracle, kCost);
  EvaluationOptions options = DefaultOptions(8);
  options.moe_target = 1e-6;
  options.max_units = 100;
  const EvaluationResult r =
      RunDesign("twcs", pop_.population, &annotator, options);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.estimate.num_units, 100u);
  EXPECT_LT(r.estimate.num_units, 100u + options.batch_units + 1);
}

TEST_F(StaticEvaluatorTest, SrsExhaustsSmallPopulationGracefully) {
  TestPopulation tiny = MakeTestPopulation(5, 3, 0.5, 0.5, 2);
  SimulatedAnnotator annotator(&tiny.oracle, kCost);
  EvaluationOptions options = DefaultOptions(9);
  options.moe_target = 1e-9;  // force exhaustion.
  options.max_units = 0;      // no cap.
  const EvaluationResult r =
      RunDesign("srs", tiny.population, &annotator, options);
  // Every triple annotated exactly once.
  EXPECT_EQ(r.ledger.triples_annotated, tiny.population.TotalTriples());
  EXPECT_NEAR(r.estimate.mean,
              RealizedOverallAccuracy(tiny.oracle, tiny.population), 1e-12);
}

/// The TWCS campaign's result at `options`, on a fresh annotator.
EvaluationResult RunTwcs(const TestPopulation& pop,
                         const EvaluationOptions& options) {
  SimulatedAnnotator annotator(&pop.oracle, kCost);
  return RunDesign("twcs", pop.population, &annotator, options);
}

void ExpectSameCampaign(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_DOUBLE_EQ(a.estimate.mean, b.estimate.mean);
  EXPECT_EQ(a.estimate.num_units, b.estimate.num_units);
  EXPECT_EQ(a.ledger.triples_annotated, b.ledger.triples_annotated);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST_F(StaticEvaluatorTest, ExplicitMIsUsed) {
  EvaluationOptions options = DefaultOptions(10);
  options.m = 7;
  EXPECT_EQ(ResolveSecondStageSize(options, kCost, nullptr), 7u);
  // m = 1 annotates at most one new triple per drawn cluster.
  options.m = 1;
  const EvaluationResult r = RunTwcs(pop_, options);
  EXPECT_LE(r.ledger.triples_annotated, r.estimate.num_units);
}

TEST_F(StaticEvaluatorTest, AutoMDefaultsWithoutStats) {
  EvaluationOptions options = DefaultOptions(11);
  EXPECT_EQ(ResolveSecondStageSize(options, kCost, nullptr),
            5u);  // paper guideline.
  const EvaluationResult auto_m = RunTwcs(pop_, options);
  options.m = 5;
  ExpectSameCampaign(auto_m, RunTwcs(pop_, options));
}

TEST_F(StaticEvaluatorTest, AutoMUsesPopulationStats) {
  const ClusterPopulationStats stats =
      BuildPopulationStats(pop_.population, pop_.oracle);
  const uint64_t m =
      ResolveSecondStageSize(DefaultOptions(12), kCost, &stats);
  EXPECT_GE(m, 1u);
  EXPECT_LE(m, 20u);
  const OptimalMResult expected = ChooseOptimalM(stats, kCost, 0.05, 0.05);
  EXPECT_EQ(m, expected.best_m);
}

TEST_F(StaticEvaluatorTest, DeterministicGivenSeed) {
  ExpectSameCampaign(RunTwcs(pop_, DefaultOptions(77)),
                     RunTwcs(pop_, DefaultOptions(77)));
}

}  // namespace
}  // namespace kgacc
