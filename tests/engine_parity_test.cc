// Golden-parity tests for the EvaluationEngine refactor: every registry
// design must reproduce, bit for bit, the EvaluationResult the pre-refactor
// hand-rolled loops produced at fixed seeds on the synthetic generator. The
// golden numbers below were captured from the last commit before the engine
// existed (the four static loops and the stratified loop);
// sampling, annotation order, estimation, and stopping are all deterministic
// given the seed, so any drift in these values means the refactor changed
// campaign semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/design_registry.h"
#include "core/optimal_m.h"
#include "core/stratified_source.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

struct Golden {
  std::string design;        ///< registry name.
  double mean;
  double variance_of_mean;
  uint64_t num_units;
  double moe;
  bool converged;
  uint64_t rounds;
  uint64_t entities_identified;
  uint64_t triples_annotated;
  double annotation_seconds;
  bool wilson = false;
};

// Captured pre-refactor on MakeTestPopulation(500, 15, 0.8, 0.2, 31337)
// with EvaluationOptions{.seed = 77} (and srs_ci = kWilson where flagged).
// The wcs, twcs and twcs+strat rows were re-captured when the size-weighted
// first stage moved from a Walker alias table to the triple prefix index,
// which draws clusters with the same probabilities from a different stream.
const Golden kGoldens[] = {
    {"srs", 0.77142857142857146, 0.00062973760932944595, 280,
     0.049184459884006361, true, 28, 212, 280, 16540.0},
    {"srs", 0.77037037037037037, 0.00065518467713255094, 270,
     0.049959417048247468, true, 27, 203, 270, 15885.0, /*wilson=*/true},
    {"rcs", 0.80620899114638511, 0.00064250557600313779, 340,
     0.049680566746791575, true, 34, 340, 2771, 84575.0},
    {"wcs", 0.81207714507714512, 0.00063018794764339674, 50,
     0.049202043150359656, true, 5, 45, 465, 13650.0},
    {"twcs", 0.79625000000000001, 0.00058368275316455728, 80,
     0.047351803140229201, true, 8, 73, 371, 12560.0},
    {"twcs+strat", 0.79283839367862763, 0.00059530940016392741, 60,
     0.047821088928440843, true, 3, 55, 269, 9200.0},
};

class EngineParityTest : public ::testing::Test {
 protected:
  void SetUp() override { pop_ = MakeTestPopulation(500, 15, 0.8, 0.2, 31337); }

  EvaluationOptions Options(bool wilson) const {
    EvaluationOptions options;
    options.seed = 77;
    if (wilson) options.srs_ci = CiMethod::kWilson;
    return options;
  }

  TestPopulation pop_;
};

TEST_F(EngineParityTest, RegistryDesignsReproducePreRefactorResults) {
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.design + (golden.wilson ? "+wilson" : ""));
    SimulatedAnnotator annotator(&pop_.oracle, kCost);
    Result<EvaluationResult> run = DesignRegistry::Global().Run(
        golden.design, pop_.population, &annotator, Options(golden.wilson));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const EvaluationResult& r = *run;
    EXPECT_DOUBLE_EQ(r.estimate.mean, golden.mean);
    EXPECT_DOUBLE_EQ(r.estimate.variance_of_mean, golden.variance_of_mean);
    EXPECT_EQ(r.estimate.num_units, golden.num_units);
    EXPECT_DOUBLE_EQ(r.moe, golden.moe);
    EXPECT_EQ(r.converged, golden.converged);
    EXPECT_EQ(r.rounds, golden.rounds);
    EXPECT_EQ(r.ledger.entities_identified, golden.entities_identified);
    EXPECT_EQ(r.ledger.triples_annotated, golden.triples_annotated);
    EXPECT_DOUBLE_EQ(r.annotation_seconds, golden.annotation_seconds);
  }
}

TEST_F(EngineParityTest, StratifiedSecondStageSizeUsesSharedResolution) {
  // The pre-refactor stratified loop hardcoded m = 5; it must now route
  // through the same auto-m resolution as static TWCS: m = 0 resolves to
  // the paper's default, so it runs the m = 5 campaign draw for draw, and
  // explicit strata run what the registry's twcs+strat runs.
  const auto run_explicit = [&](uint64_t m) {
    SimulatedAnnotator annotator(&pop_.oracle, kCost);
    EvaluationOptions options = Options(false);
    options.m = m;
    return RunCampaign(
        *MakeStratifiedTwcsCampaign(TriplePrefixIndex(pop_.population),
                                    SizeStrata(pop_.population, 4),
                                    &annotator, options),
        options.control);
  };
  EvaluationOptions options = Options(false);
  options.num_strata = 4;
  options.m = 5;
  SimulatedAnnotator annotator(&pop_.oracle, kCost);
  const EvaluationResult via_registry = *DesignRegistry::Global().Run(
      "twcs+strat", pop_.population, &annotator, options);
  ASSERT_EQ(ResolveSecondStageSize(Options(false), kCost, nullptr), 5u);
  for (uint64_t m : {uint64_t{0}, uint64_t{5}}) {
    SCOPED_TRACE(m);
    const EvaluationResult direct = run_explicit(m);
    EXPECT_EQ(direct.design, "TWCS+strat");
    EXPECT_DOUBLE_EQ(direct.estimate.mean, via_registry.estimate.mean);
    EXPECT_EQ(direct.estimate.num_units, via_registry.estimate.num_units);
    EXPECT_EQ(direct.ledger.triples_annotated,
              via_registry.ledger.triples_annotated);
    EXPECT_EQ(direct.rounds, via_registry.rounds);
  }
  EXPECT_NE(run_explicit(7).ledger.triples_annotated,
            via_registry.ledger.triples_annotated);
}

}  // namespace
}  // namespace kgacc
