// Statistical calibration of the framework's reported confidence intervals:
// a converged evaluation's (estimate ± MoE) must cover the true accuracy at
// roughly the nominal rate across designs and populations. Sequential
// stopping trims a little coverage (the framework stops on a favourable
// batch), so the acceptance band is set below the nominal 95% but far above
// what a mis-derived variance would produce.

#include <gtest/gtest.h>

#include <vector>

#include "core/reservoir_incremental.h"
#include "core/stratified_incremental.h"
#include "core/stratified_source.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::RunDesign;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};
constexpr int kTrials = 120;

struct CoverageResult {
  int covered = 0;
  int converged = 0;
};

template <typename EvaluateFn>
CoverageResult MeasureCoverage(double truth, EvaluateFn evaluate) {
  CoverageResult result;
  for (int t = 0; t < kTrials; ++t) {
    const EvaluationResult r = evaluate(9000 + 17 * t);
    if (!r.converged) continue;
    ++result.converged;
    if (std::abs(r.estimate.mean - truth) <= r.moe + 1e-12) ++result.covered;
  }
  return result;
}

TEST(CiCoverageTest, TwcsCoversAtRoughlyNominalRate) {
  const TestPopulation pop = MakeTestPopulation(1200, 12, 0.75, 0.25, 41);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  const CoverageResult coverage =
      MeasureCoverage(truth, [&](uint64_t seed) {
        EvaluationOptions options;
        options.seed = seed;
        SimulatedAnnotator annotator(&pop.oracle, kCost);
        return RunDesign("twcs", pop.population, &annotator, options);
      });
  EXPECT_EQ(coverage.converged, kTrials);
  EXPECT_GE(coverage.covered, kTrials * 85 / 100);
}

TEST(CiCoverageTest, SrsCoversAtRoughlyNominalRate) {
  const TestPopulation pop = MakeTestPopulation(1200, 12, 0.7, 0.2, 43);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  const CoverageResult coverage =
      MeasureCoverage(truth, [&](uint64_t seed) {
        EvaluationOptions options;
        options.seed = seed;
        SimulatedAnnotator annotator(&pop.oracle, kCost);
        return RunDesign("srs", pop.population, &annotator, options);
      });
  EXPECT_EQ(coverage.converged, kTrials);
  EXPECT_GE(coverage.covered, kTrials * 85 / 100);
}

TEST(CiCoverageTest, StratifiedTwcsCoversAtRoughlyNominalRate) {
  const TestPopulation pop = MakeTestPopulation(1500, 20, 0.8, 0.3, 47);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  const Strata strata = SizeStrata(pop.population, 3);
  const CoverageResult coverage =
      MeasureCoverage(truth, [&](uint64_t seed) {
        EvaluationOptions options;
        options.seed = seed;
        SimulatedAnnotator annotator(&pop.oracle, kCost);
        return RunCampaign(
            *MakeStratifiedTwcsCampaign(TriplePrefixIndex(pop.population),
                                        strata, &annotator, options),
            options.control);
      });
  EXPECT_EQ(coverage.converged, kTrials);
  EXPECT_GE(coverage.covered, kTrials * 82 / 100);
}

TEST(CiCoverageTest, TighterTargetStillCovers) {
  const TestPopulation pop = MakeTestPopulation(1500, 12, 0.75, 0.2, 53);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  const CoverageResult coverage =
      MeasureCoverage(truth, [&](uint64_t seed) {
        EvaluationOptions options;
        options.seed = seed;
        options.moe_target = 0.025;
        SimulatedAnnotator annotator(&pop.oracle, kCost);
        return RunDesign("twcs", pop.population, &annotator, options);
      });
  EXPECT_EQ(coverage.converged, kTrials);
  EXPECT_GE(coverage.covered, kTrials * 85 / 100);
}

TEST(CiCoverageTest, HigherConfidenceCoversMore) {
  const TestPopulation pop = MakeTestPopulation(1200, 12, 0.6, 0.2, 59);
  const double truth = RealizedOverallAccuracy(pop.oracle, pop.population);
  const auto run = [&](double confidence) {
    return MeasureCoverage(truth, [&](uint64_t seed) {
      EvaluationOptions options;
      options.seed = seed;
      options.confidence = confidence;
      SimulatedAnnotator annotator(&pop.oracle, kCost);
      return RunDesign("twcs", pop.population, &annotator, options);
    });
  };
  const CoverageResult at90 = run(0.90);
  const CoverageResult at99 = run(0.99);
  // 99% must not cover less than 90% (allow small statistical slack).
  EXPECT_GE(at99.covered + kTrials / 20, at90.covered);
  EXPECT_GE(at99.covered, kTrials * 90 / 100);
}

/// An evolving KG for the incremental designs: a 1,200-cluster base and 30
/// update batches of 40 clusters whose accuracy drifts from 0.55 to 0.84.
struct EvolvingKg {
  static constexpr uint64_t kBase = 1200;
  static constexpr uint64_t kBatch = 40;
  static constexpr int kUpdates = 30;

  std::vector<uint32_t> sizes;
  PerClusterBernoulliOracle oracle{0xc0e7};

  EvolvingKg() {
    Rng rng(61);
    for (uint64_t c = 0; c < kBase + kUpdates * kBatch; ++c) {
      const int batch = c < kBase ? -1 : static_cast<int>((c - kBase) / kBatch);
      const double center = batch < 0 ? 0.8 : 0.55 + 0.01 * batch;
      sizes.push_back(1 + static_cast<uint32_t>(rng.UniformIndex(12)));
      const double p = center + 0.2 * (rng.UniformDouble() - 0.5) * 2.0;
      oracle.Append(p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p));
    }
  }

  /// Initializes on the base, then appends and applies every batch; returns
  /// the last update's result.
  template <typename Evaluator>
  EvaluationResult Evolve(uint64_t seed) const {
    ClusterPopulation population(
        std::vector<uint32_t>(sizes.begin(), sizes.begin() + kBase));
    SimulatedAnnotator annotator(&oracle, kCost);
    EvaluationOptions options;
    options.seed = seed;
    Evaluator evaluator(&population, &annotator, options);
    evaluator.Initialize();
    EvaluationResult last;
    for (int u = 0; u < kUpdates; ++u) {
      const uint64_t first = population.NumClusters();
      for (uint64_t c = first; c < first + kBatch; ++c) {
        population.Append(sizes[c]);
      }
      last = evaluator.ApplyUpdate(first, kBatch);
    }
    return last;
  }

  double Truth() const {
    return RealizedOverallAccuracy(oracle, ClusterPopulation(sizes));
  }
};

TEST(CiCoverageTest, ReservoirCoversAfterThirtyUpdates) {
  const EvolvingKg kg;
  const CoverageResult coverage =
      MeasureCoverage(kg.Truth(), [&](uint64_t seed) {
        return kg.Evolve<ReservoirIncrementalEvaluator>(seed);
      });
  EXPECT_EQ(coverage.converged, kTrials);
  EXPECT_GE(coverage.covered, kTrials * 85 / 100);
}

TEST(CiCoverageTest, StratifiedIncrementalCoversAfterThirtyUpdates) {
  const EvolvingKg kg;
  const CoverageResult coverage =
      MeasureCoverage(kg.Truth(), [&](uint64_t seed) {
        return kg.Evolve<StratifiedIncrementalEvaluator>(seed);
      });
  EXPECT_EQ(coverage.converged, kTrials);
  EXPECT_GE(coverage.covered, kTrials * 85 / 100);
}

}  // namespace
}  // namespace kgacc
