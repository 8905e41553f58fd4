#include "core/design_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "stats/stratification.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

TEST(DesignRegistryTest, BuiltinsAreRegistered) {
  const DesignRegistry& registry = DesignRegistry::Global();
  for (const char* name : {"srs", "rcs", "wcs", "twcs", "twcs+strat",
                           "twcs+pilot", "rs", "ss", "kgeval"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_FALSE(registry.Description(name).empty()) << name;
  }
  const std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 9u);
}

TEST(DesignRegistryTest, EveryBuiltinRunsAndConverges) {
  TestPopulation pop = MakeTestPopulation(400, 12, 0.8, 0.15, 4242);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  EvaluationOptions options;
  options.seed = 9;
  const struct {
    const char* name;
    const char* design_label;
  } kCases[] = {{"srs", "SRS"},
                {"rcs", "RCS"},
                {"wcs", "WCS"},
                {"twcs", "TWCS"},
                {"twcs+strat", "TWCS+strat"},
                {"twcs+pilot", "TWCS+pilot"},
                {"rs", "RS"},
                {"ss", "SS"}};
  for (const auto& test_case : kCases) {
    SCOPED_TRACE(test_case.name);
    SimulatedAnnotator annotator(&pop.oracle, kCost);
    Result<EvaluationResult> run = DesignRegistry::Global().Run(
        test_case.name, pop.population, &annotator, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->design, test_case.design_label);
    EXPECT_TRUE(run->converged);
    EXPECT_LE(run->moe, options.moe_target + 1e-12);
    EXPECT_NEAR(run->estimate.mean, truth, 2.5 * options.moe_target);
  }
}

TEST(DesignRegistryTest, UnknownDesignListsKnownNames) {
  TestPopulation pop = MakeTestPopulation(50, 5, 0.8, 0.1, 1);
  SimulatedAnnotator annotator(&pop.oracle, kCost);
  const Result<EvaluationResult> run = DesignRegistry::Global().Run(
      "no-such-design", pop.population, &annotator, EvaluationOptions{});
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("no-such-design"), std::string::npos);
  EXPECT_NE(run.status().message().find("twcs"), std::string::npos);
}

TEST(DesignRegistryTest, AGraphWithoutTriplesIsAnError) {
  // No design can draw a first unit from it; each says so instead of
  // aborting in its sampler.
  const PerClusterBernoulliOracle oracle{1};
  const ClusterPopulation empty;
  const ClusterPopulation zero_sized(std::vector<uint32_t>{0, 0, 0});
  for (const KgView* view : {static_cast<const KgView*>(&empty),
                             static_cast<const KgView*>(&zero_sized)}) {
    for (const std::string& name : DesignRegistry::Global().Names()) {
      SCOPED_TRACE(name);
      SimulatedAnnotator annotator(&oracle, kCost);
      const Result<EvaluationResult> run = DesignRegistry::Global().Run(
          name, *view, &annotator, EvaluationOptions{});
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(run.status().message().find("empty graph"),
                std::string::npos)
          << run.status().message();
    }
  }
}

TEST(DesignRegistryTest, StrataCountFlowsThroughOptions) {
  TestPopulation pop = MakeTestPopulation(600, 20, 0.8, 0.2, 99);
  EvaluationOptions two;
  two.seed = 5;
  two.num_strata = 2;
  EvaluationOptions six = two;
  six.num_strata = 6;
  SimulatedAnnotator a1(&pop.oracle, kCost), a2(&pop.oracle, kCost);
  const EvaluationResult r2 =
      *DesignRegistry::Global().Run("twcs+strat", pop.population, &a1, two);
  const EvaluationResult r6 =
      *DesignRegistry::Global().Run("twcs+strat", pop.population, &a2, six);
  EXPECT_TRUE(r2.converged);
  EXPECT_TRUE(r6.converged);
  // Different stratifications draw different samples.
  EXPECT_NE(r2.ledger.triples_annotated, r6.ledger.triples_annotated);
}

TEST(DesignRegistryTest, OutOfRangeStrataCountIsAnError) {
  TestPopulation pop = MakeTestPopulation(600, 20, 0.8, 0.2, 99);
  // 300 is over the 256-stratum limit; 2^32 + 2 would truncate to 2 as an
  // int.
  for (uint64_t count : {uint64_t{300}, (uint64_t{1} << 32) + 2}) {
    EvaluationOptions options;
    options.num_strata = count;
    SimulatedAnnotator annotator(&pop.oracle, kCost);
    const Result<EvaluationResult> run = DesignRegistry::Global().Run(
        "twcs+strat", pop.population, &annotator, options);
    ASSERT_FALSE(run.ok()) << count;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find("256"), std::string::npos)
        << run.status().message();
  }
  EvaluationOptions most;
  most.num_strata = kMaxStrata;
  SimulatedAnnotator annotator(&pop.oracle, kCost);
  EXPECT_TRUE(DesignRegistry::Global()
                  .Run("twcs+strat", pop.population, &annotator, most)
                  .ok());
}

TEST(DesignRegistryTest, StratumOfZeroSizeClustersIsNeverDrawn) {
  // Size strata give the empty clusters a stratum of their own: weight 0,
  // nothing to draw. The campaign runs on the other stratum.
  std::vector<uint32_t> sizes;
  PerClusterBernoulliOracle oracle{7};
  for (int i = 0; i < 400; ++i) {
    sizes.push_back(i % 2 == 0 ? 40 : 0);
    oracle.Append(0.8);
  }
  const ClusterPopulation population(std::move(sizes));
  EvaluationOptions options;
  options.num_strata = 2;
  SimulatedAnnotator annotator(&oracle, kCost);
  const Result<EvaluationResult> run = DesignRegistry::Global().Run(
      "twcs+strat", population, &annotator, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->converged);
  EXPECT_GT(run->ledger.triples_annotated, 0u);
}

}  // namespace
}  // namespace kgacc
