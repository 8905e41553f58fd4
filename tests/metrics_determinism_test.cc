// The observability hard invariant: recording metrics and traces never
// touches an RNG stream, never reorders an annotation, and never feeds back
// into the evaluation. A campaign run with metrics on, tracing on, or both
// is bit-identical — estimate, MoE, ledger, cost, and per-round telemetry —
// to the same campaign with observability off, at every annotation thread
// count the concurrent path supports.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/design_registry.h"
#include "core/telemetry.h"
#include "labels/annotator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

struct CampaignOutput {
  EvaluationResult result;
  std::vector<CampaignTrace> traces;
};

enum class Obs { kOff, kMetrics, kMetricsAndTrace };

CampaignOutput RunCampaign(const TestPopulation& pop,
                           const std::string& design, int threads, Obs obs) {
  if (obs != Obs::kOff) {
    obs::EnableMetrics(true);
    if (obs == Obs::kMetricsAndTrace) obs::TraceSession::Start();
  }
  EvaluationOptions options;
  options.seed = 4321;
  // Crowd-scale batches so the parallel sharded annotation path runs (and is
  // instrumented) when threads > 1.
  options.batch_units = 2000;
  options.moe_target = 0.03;
  TraceRecorder recorder;
  options.telemetry = &recorder;
  SimulatedAnnotator annotator(
      &pop.oracle, kCost,
      {.noise_rate = 0.1, .seed = 0xfeed, .annotation_threads = threads});
  const Result<EvaluationResult> run =
      DesignRegistry::Global().Run(design, pop.population, &annotator, options);
  obs::TraceSession::Stop();
  obs::EnableMetrics(false);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return CampaignOutput{*run, recorder.campaigns()};
}

void ExpectBitIdentical(const CampaignOutput& a, const CampaignOutput& b,
                        const std::string& context) {
  SCOPED_TRACE(context);
  // machine_seconds is wall time and legitimately varies; everything the
  // evaluation *computed* must match exactly.
  EXPECT_EQ(a.result.estimate.mean, b.result.estimate.mean);
  EXPECT_EQ(a.result.estimate.variance_of_mean,
            b.result.estimate.variance_of_mean);
  EXPECT_EQ(a.result.estimate.num_units, b.result.estimate.num_units);
  EXPECT_EQ(a.result.moe, b.result.moe);
  EXPECT_EQ(a.result.converged, b.result.converged);
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.result.ledger.entities_identified,
            b.result.ledger.entities_identified);
  EXPECT_EQ(a.result.ledger.triples_annotated,
            b.result.ledger.triples_annotated);
  EXPECT_EQ(a.result.annotation_seconds, b.result.annotation_seconds);

  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (size_t t = 0; t < a.traces.size(); ++t) {
    ASSERT_EQ(a.traces[t].rounds.size(), b.traces[t].rounds.size());
    for (size_t r = 0; r < a.traces[t].rounds.size(); ++r) {
      const CampaignRound& x = a.traces[t].rounds[r];
      const CampaignRound& y = b.traces[t].rounds[r];
      EXPECT_EQ(x.cost_seconds, y.cost_seconds);
      EXPECT_EQ(x.units, y.units);
      EXPECT_EQ(x.estimate, y.estimate);
      EXPECT_EQ(x.moe, y.moe);
      EXPECT_EQ(x.triples_annotated, y.triples_annotated);
      EXPECT_EQ(x.entities_identified, y.entities_identified);
    }
  }
}

class MetricsDeterminismTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override {
    // Never leak an enabled mode into other tests.
    obs::TraceSession::Stop();
    obs::EnableMetrics(false);
  }
};

TEST_P(MetricsDeterminismTest, ObservabilityNeverChangesResults) {
  const TestPopulation pop = MakeTestPopulation(20000, 12, 0.85, 0.2, 47);
  const CampaignOutput baseline = RunCampaign(pop, GetParam(), 1, Obs::kOff);
  ASSERT_GT(baseline.result.ledger.triples_annotated, 1024u);
  for (int threads : {1, 4, 8}) {
    const std::string prefix =
        std::string(GetParam()) + " threads=" + std::to_string(threads);
    ExpectBitIdentical(baseline, RunCampaign(pop, GetParam(), threads, Obs::kOff),
                       prefix + " obs=off");
    ExpectBitIdentical(baseline,
                       RunCampaign(pop, GetParam(), threads, Obs::kMetrics),
                       prefix + " obs=metrics");
    ExpectBitIdentical(
        baseline,
        RunCampaign(pop, GetParam(), threads, Obs::kMetricsAndTrace),
        prefix + " obs=metrics+trace");
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, MetricsDeterminismTest,
                         ::testing::Values("srs", "twcs"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(MetricsDeterminismTest, InstrumentationActuallyObservedTheRun) {
  // Guards against the vacuous version of the suite above: the instrumented
  // phases really do record when metrics are on.
  const TestPopulation pop = MakeTestPopulation(5000, 10, 0.85, 0.2, 48);
  obs::MetricsRegistry::Global().ResetValues();
  const CampaignOutput run = RunCampaign(pop, "twcs", 4, Obs::kMetrics);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto* rounds = snap.FindCounter("engine.rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value, run.result.rounds);
  const auto* annotate = snap.FindHistogram("engine.round.annotate_seconds");
  ASSERT_NE(annotate, nullptr);
  EXPECT_EQ(annotate->count, run.result.rounds);
  const auto* lookups = snap.FindCounter("annotation.cache.lookups");
  ASSERT_NE(lookups, nullptr);
  EXPECT_GE(lookups->value, run.result.ledger.triples_annotated);
  obs::EnableMetrics(false);
}

}  // namespace
}  // namespace kgacc
