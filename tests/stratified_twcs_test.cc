// Stratified TWCS (Section 5.3, Eq 13) over explicit size and oracle strata,
// through MakeStratifiedTwcsCampaign.

#include <gtest/gtest.h>

#include "core/stratified_source.h"
#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "stats/running_stats.h"
#include "test_util.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

EvaluationOptions DefaultOptions(uint64_t seed) {
  EvaluationOptions options;
  options.seed = seed;
  return options;
}

/// One stratified-TWCS campaign over `strata`, run to completion.
EvaluationResult RunStratified(const KgView& view, const Strata& strata,
                               Annotator* annotator,
                               const EvaluationOptions& options) {
  return RunCampaign(*MakeStratifiedTwcsCampaign(TriplePrefixIndex(view),
                                                 strata, annotator, options),
                     options.control);
}

/// A population where cluster size strongly predicts accuracy (the BMM
/// regime of Section 7.2.3): size stratification should shine.
struct BmmPopulation {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0};
};

BmmPopulation MakeBmmPopulation(uint64_t seed) {
  Rng rng(seed);
  BmmPopulation out;
  std::vector<uint32_t> sizes;
  for (int i = 0; i < 2000; ++i) {
    sizes.push_back(1 + static_cast<uint32_t>(rng.UniformIndex(60)));
  }
  out.oracle = MakeBinomialMixtureOracle(
      sizes, BmmParams{.k = 3, .c = 0.08, .sigma = 0.05}, seed);
  for (uint32_t s : sizes) out.population.Append(s);
  return out;
}

TEST(SizeStrataTest, PartitionsAllClusters) {
  BmmPopulation bmm = MakeBmmPopulation(1);
  const Strata strata = SizeStrata(bmm.population, 4);
  ASSERT_EQ(strata.stratum_of.size(), bmm.population.NumClusters());
  size_t members = 0;
  double weight = 0.0;
  for (const std::vector<uint32_t>& stratum : testing::StrataMembers(strata)) {
    members += stratum.size();
  }
  for (size_t h = 0; h < strata.NumStrata(); ++h) {
    weight += strata.weights[h];
  }
  EXPECT_EQ(members, bmm.population.NumClusters());
  EXPECT_NEAR(weight, 1.0, 1e-9);
  EXPECT_GE(strata.NumStrata(), 2u);
}

TEST(OracleStrataTest, GroupsByAccuracy) {
  BmmPopulation bmm = MakeBmmPopulation(2);
  const Strata strata = OracleStrata(bmm.population, bmm.oracle, 4);
  EXPECT_GE(strata.NumStrata(), 2u);
  // Accuracy spread within a stratum should be far smaller than overall.
  const std::vector<std::vector<uint32_t>> members =
      testing::StrataMembers(strata);
  for (size_t h = 0; h < strata.NumStrata(); ++h) {
    RunningStats acc;
    for (uint32_t c : members[h]) {
      acc.Add(RealizedClusterAccuracy(bmm.oracle, c,
                                      bmm.population.ClusterSize(c)));
    }
    EXPECT_LT(acc.SampleStdDev(), 0.35) << "stratum " << h;
  }
}

TEST(StratifiedTwcsTest, ConvergesWithValidEstimate) {
  BmmPopulation bmm = MakeBmmPopulation(3);
  const double truth = RealizedOverallAccuracy(bmm.oracle, bmm.population);
  SimulatedAnnotator annotator(&bmm.oracle, kCost);
  const EvaluationResult r =
      RunStratified(bmm.population, SizeStrata(bmm.population, 4), &annotator,
                    DefaultOptions(4));
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.moe, 0.05 + 1e-12);
  EXPECT_NEAR(r.estimate.mean, truth, 2.5 * 0.05);
  EXPECT_EQ(r.design, "TWCS+strat");
}

TEST(StratifiedTwcsTest, UnbiasedOverTrials) {
  BmmPopulation bmm = MakeBmmPopulation(5);
  const double truth = RealizedOverallAccuracy(bmm.oracle, bmm.population);
  const Strata strata = SizeStrata(bmm.population, 4);
  RunningStats means;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SimulatedAnnotator annotator(&bmm.oracle, kCost);
    means.Add(RunStratified(bmm.population, strata, &annotator,
                            DefaultOptions(1000 + seed))
                  .estimate.mean);
  }
  const double se = means.SampleStdDev() / std::sqrt(40.0);
  EXPECT_NEAR(means.Mean(), truth, 4.0 * se + 0.005);
}

TEST(StratifiedTwcsTest, OracleStratificationReducesCostOnBmm) {
  // Table 7's qualitative claim, averaged over seeds: TWCS with oracle
  // stratification <= plain TWCS on a strongly size-correlated population.
  BmmPopulation bmm = MakeBmmPopulation(6);
  RunningStats plain_cost, oracle_cost;
  const Strata oracle_strata = OracleStrata(bmm.population, bmm.oracle, 4);
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SimulatedAnnotator a1(&bmm.oracle, kCost), a2(&bmm.oracle, kCost);
    EvaluationOptions options = DefaultOptions(3000 + seed);
    options.m = 5;
    plain_cost.Add(testing::RunDesign("twcs", bmm.population, &a1, options)
                       .annotation_seconds);
    oracle_cost.Add(
        RunStratified(bmm.population, oracle_strata, &a2, options)
            .annotation_seconds);
  }
  EXPECT_LT(oracle_cost.Mean(), plain_cost.Mean());
}

TEST(StratifiedTwcsTest, SingleStratumMatchesPlainTwcsShape) {
  BmmPopulation bmm = MakeBmmPopulation(7);
  SimulatedAnnotator annotator(&bmm.oracle, kCost);
  Strata one;
  one.stratum_of.assign(bmm.population.NumClusters(), 0);
  one.weights = {1.0};
  const EvaluationResult r =
      RunStratified(bmm.population, one, &annotator, DefaultOptions(8));
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.moe, 0.05 + 1e-12);
}

TEST(StratifiedTwcsDeathTest, NoStrataAborts) {
  BmmPopulation bmm = MakeBmmPopulation(9);
  SimulatedAnnotator annotator(&bmm.oracle, kCost);
  EXPECT_DEATH(
      {
        (void)MakeStratifiedTwcsCampaign(TriplePrefixIndex(bmm.population),
                                         Strata{}, &annotator,
                                         DefaultOptions(10));
      },
      "at least one stratum");
}

}  // namespace
}  // namespace kgacc
