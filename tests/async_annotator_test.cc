// The async annotation bridge's headline guarantee: for every latency and
// every window size, the pipelined asynchronous path produces results,
// ledgers and telemetry traces bit-identical to the synchronous latency
// facade — latency only ever costs wall-clock time. These tests pin that
// contract across designs and annotation thread counts, plus the bounded
// in-flight window, chunked Begin/Finish submission, and cancellation.

#include "labels/async_annotator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/design_registry.h"
#include "core/telemetry.h"
#include "labels/annotator_spec.h"
#include "test_util.h"

namespace kgacc {
namespace {

using Clock = std::chrono::steady_clock;
using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

std::vector<TripleRef> MakeRefs(const KgView& view, uint64_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<TripleRef> refs;
  refs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t cluster = rng.UniformIndex(view.NumClusters());
    refs.push_back(
        TripleRef{cluster, rng.UniformIndex(view.ClusterSize(cluster))});
  }
  return refs;
}

TEST(AsyncAnnotatorTest, LatencyModelIsAPureFunctionOfTheTriple) {
  const LatencyModel model(0.050, 0xfeed);
  const double first = model.SecondsFor({3, 1});
  EXPECT_EQ(model.SecondsFor({3, 1}), first);          // stable.
  EXPECT_NE(model.SecondsFor({3, 2}), first);          // triple-dependent.
  EXPECT_GE(first, 0.025);                             // in [0.5, 1.5) x mean.
  EXPECT_LT(first, 0.075);
  const LatencyModel reseeded(0.050, 0xfeee);
  EXPECT_NE(reseeded.SecondsFor({3, 1}), first);       // seed-dependent.
  const LatencyModel zero(0.0, 0xfeed);
  EXPECT_EQ(zero.SecondsFor({3, 1}), 0.0);
}

TEST(AsyncAnnotatorTest, BatchLabelsMatchTheBackendExactly) {
  TestPopulation pop = MakeTestPopulation(200, 6, 0.8, 0.2, 21);
  SimulatedAnnotator plain(&pop.oracle, kCost, {.seed = 0xabc});
  AsyncAnnotator bridge(
      std::make_unique<MockLatencyAnnotator>(
          std::make_unique<SimulatedAnnotator>(
              &pop.oracle, kCost, SimulatedAnnotator::Options{.seed = 0xabc}),
          MockLatencyAnnotator::Options{.latency_seconds = 0.0005}),
      AsyncAnnotator::Options{.max_concurrent = 4});

  const std::vector<TripleRef> refs = MakeRefs(pop.population, 150, 1);
  std::vector<uint8_t> expected(refs.size()), actual(refs.size());
  plain.AnnotateBatch(std::span<const TripleRef>(refs), expected.data());
  bridge.AnnotateBatch(std::span<const TripleRef>(refs), actual.data());
  EXPECT_EQ(expected, actual);
  EXPECT_EQ(plain.ledger().triples_annotated,
            bridge.ledger().triples_annotated);
  EXPECT_EQ(plain.ledger().entities_identified,
            bridge.ledger().entities_identified);
}

TEST(AsyncAnnotatorTest, WindowStaysBoundedUnderHostileLatencies) {
  // Latencies drawn from [0.5, 1.5) x mean vary per triple — the hostile
  // part — but the in-flight high-water mark must never top the window.
  TestPopulation pop = MakeTestPopulation(400, 6, 0.8, 0.2, 22);
  AsyncAnnotator bridge(
      std::make_unique<MockLatencyAnnotator>(
          std::make_unique<SimulatedAnnotator>(
              &pop.oracle, kCost, SimulatedAnnotator::Options{}),
          MockLatencyAnnotator::Options{.latency_seconds = 0.001}),
      AsyncAnnotator::Options{.max_concurrent = 5});
  const std::vector<TripleRef> refs = MakeRefs(pop.population, 300, 2);
  std::vector<uint8_t> labels(refs.size());
  bridge.BeginAnnotateBatch(std::span<const TripleRef>(refs), labels.data());
  bridge.FinishAnnotateBatch();
  EXPECT_LE(bridge.queue().MaxInFlightObserved(), 5u);
  EXPECT_GE(bridge.queue().MaxInFlightObserved(), 1u);
  EXPECT_EQ(bridge.queue().InFlight(), 0u);
}

TEST(AsyncAnnotatorTest, ChunkedBeginFinishMatchesOneShot) {
  // The incremental evaluators submit per-entrant chunks against one Finish;
  // labels and ledger must match a single whole-batch call.
  TestPopulation pop = MakeTestPopulation(300, 8, 0.8, 0.2, 23);
  const std::vector<TripleRef> refs = MakeRefs(pop.population, 240, 3);

  SimulatedAnnotator plain(&pop.oracle, kCost, {});
  std::vector<uint8_t> expected(refs.size());
  plain.AnnotateBatch(std::span<const TripleRef>(refs), expected.data());

  AsyncAnnotator bridge(
      std::make_unique<MockLatencyAnnotator>(
          std::make_unique<SimulatedAnnotator>(
              &pop.oracle, kCost, SimulatedAnnotator::Options{}),
          MockLatencyAnnotator::Options{.latency_seconds = 0.0005}),
      AsyncAnnotator::Options{.max_concurrent = 8});
  std::vector<uint8_t> actual(refs.size());
  const std::span<const TripleRef> all(refs);
  for (size_t start = 0; start < refs.size(); start += 37) {
    const size_t len = std::min<size_t>(37, refs.size() - start);
    bridge.BeginAnnotateBatch(all.subspan(start, len), actual.data() + start);
  }
  bridge.FinishAnnotateBatch();
  EXPECT_EQ(expected, actual);
  EXPECT_EQ(plain.ledger().triples_annotated,
            bridge.ledger().triples_annotated);
}

TEST(AsyncAnnotatorTest, RepeatedTriplesResolveInlineWithoutWindowSlots) {
  TestPopulation pop = MakeTestPopulation(50, 4, 0.9, 0.1, 24);
  AsyncAnnotator bridge(
      std::make_unique<MockLatencyAnnotator>(
          std::make_unique<SimulatedAnnotator>(
              &pop.oracle, kCost, SimulatedAnnotator::Options{}),
          MockLatencyAnnotator::Options{.latency_seconds = 0.001}),
      AsyncAnnotator::Options{.max_concurrent = 2});
  const std::vector<TripleRef> first = MakeRefs(pop.population, 40, 4);
  std::vector<uint8_t> labels_a(first.size()), labels_b(first.size());
  bridge.AnnotateBatch(std::span<const TripleRef>(first), labels_a.data());
  const AnnotationLedger after_first = bridge.ledger();
  // The same refs again: all cached, so no latency is charged and nothing
  // enters the completion queue.
  const size_t high_water = bridge.queue().MaxInFlightObserved();
  bridge.AnnotateBatch(std::span<const TripleRef>(first), labels_b.data());
  EXPECT_EQ(labels_a, labels_b);
  EXPECT_EQ(bridge.ledger().triples_annotated, after_first.triples_annotated);
  EXPECT_EQ(bridge.queue().MaxInFlightObserved(), high_water);
}

TEST(AsyncAnnotatorTest, CancelPendingSkipsWaitingNeverWork) {
  // A 60s mean latency would hang the test for minutes; cancellation must
  // make the batch return promptly with every label still resolved.
  TestPopulation pop = MakeTestPopulation(100, 4, 0.8, 0.2, 25);
  SimulatedAnnotator plain(&pop.oracle, kCost, {});
  AsyncAnnotator bridge(
      std::make_unique<MockLatencyAnnotator>(
          std::make_unique<SimulatedAnnotator>(
              &pop.oracle, kCost, SimulatedAnnotator::Options{}),
          MockLatencyAnnotator::Options{.latency_seconds = 60.0}),
      AsyncAnnotator::Options{.max_concurrent = 2});
  const std::vector<TripleRef> refs = MakeRefs(pop.population, 50, 5);
  std::vector<uint8_t> expected(refs.size()), actual(refs.size());
  plain.AnnotateBatch(std::span<const TripleRef>(refs), expected.data());

  bridge.BeginAnnotateBatch(std::span<const TripleRef>(refs), actual.data());
  std::thread canceller([&bridge] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bridge.CancelPending();
  });
  const Clock::time_point start = Clock::now();
  bridge.FinishAnnotateBatch();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  canceller.join();
  EXPECT_LT(elapsed, 30.0);  // nowhere near the 60s latencies.
  EXPECT_EQ(expected, actual);  // the work still happened.
  EXPECT_EQ(plain.ledger().triples_annotated,
            bridge.ledger().triples_annotated);

  // Sticky: the next batch (a suspending session may be mid-round) also
  // skips its waits.
  const std::vector<TripleRef> more = MakeRefs(pop.population, 30, 6);
  std::vector<uint8_t> labels(more.size());
  const Clock::time_point again = Clock::now();
  bridge.AnnotateBatch(std::span<const TripleRef>(more), labels.data());
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - again).count(),
            30.0);
}

struct RunOutput {
  EvaluationResult result;
  std::vector<CampaignTrace> traces;
};

RunOutput RunDesign(const std::string& design, const TestPopulation& pop,
                    int threads, bool async_path) {
  auto backend = std::make_unique<SimulatedAnnotator>(
      &pop.oracle, kCost,
      SimulatedAnnotator::Options{.noise_rate = 0.1,
                                  .seed = 0xfeed,
                                  .annotation_threads = threads});
  auto mock = std::make_unique<MockLatencyAnnotator>(
      std::move(backend),
      MockLatencyAnnotator::Options{.latency_seconds = 0.0003, .seed = 7});
  std::unique_ptr<Annotator> annotator;
  if (async_path) {
    annotator = std::make_unique<AsyncAnnotator>(
        std::move(mock), AsyncAnnotator::Options{.max_concurrent = 8});
  } else {
    annotator = std::move(mock);
  }
  TraceRecorder recorder;
  EvaluationOptions options;
  options.seed = 99;
  options.moe_target = 0.04;
  options.batch_units = 10;
  options.telemetry = &recorder;
  Result<EvaluationResult> run = DesignRegistry::Global().Run(
      design, pop.population, annotator.get(), options);
  EXPECT_TRUE(run.ok()) << design << ": " << run.status().ToString();
  return {std::move(run).value(), recorder.campaigns()};
}

class AsyncAnnotatorParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AsyncAnnotatorParityTest, PipelinedResultsAreBitIdenticalToSync) {
  const std::string design = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  TestPopulation pop = MakeTestPopulation(600, 8, 0.8, 0.2, 26);
  const RunOutput sync = RunDesign(design, pop, threads, false);
  const RunOutput async_run = RunDesign(design, pop, threads, true);

  EXPECT_EQ(sync.result.estimate.mean, async_run.result.estimate.mean);
  EXPECT_EQ(sync.result.estimate.variance_of_mean,
            async_run.result.estimate.variance_of_mean);
  EXPECT_EQ(sync.result.estimate.num_units,
            async_run.result.estimate.num_units);
  EXPECT_EQ(sync.result.moe, async_run.result.moe);
  EXPECT_EQ(sync.result.converged, async_run.result.converged);
  EXPECT_EQ(sync.result.rounds, async_run.result.rounds);
  EXPECT_EQ(sync.result.ledger.entities_identified,
            async_run.result.ledger.entities_identified);
  EXPECT_EQ(sync.result.ledger.triples_annotated,
            async_run.result.ledger.triples_annotated);
  EXPECT_EQ(sync.result.annotation_seconds,
            async_run.result.annotation_seconds);
  // machine_seconds is the quantity the pipeline trades; not compared.

  ASSERT_EQ(sync.traces.size(), async_run.traces.size());
  for (size_t c = 0; c < sync.traces.size(); ++c) {
    ASSERT_EQ(sync.traces[c].rounds.size(),
              async_run.traces[c].rounds.size());
    for (size_t r = 0; r < sync.traces[c].rounds.size(); ++r) {
      EXPECT_EQ(RoundToJson(sync.traces[c].rounds[r]),
                RoundToJson(async_run.traces[c].rounds[r]))
          << design << " round " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, AsyncAnnotatorParityTest,
    ::testing::Combine(::testing::Values("srs", "twcs", "twcs+strat", "rs",
                                         "ss"),
                       ::testing::Values(1, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name + "_threads" + std::to_string(std::get<1>(info.param));
    });

TEST(MakeAnnotatorTest, BuildsTheStackTheSpecDescribes) {
  TestPopulation pop = MakeTestPopulation(50, 4, 0.9, 0.1, 27);
  const std::unique_ptr<Annotator> plain =
      MakeAnnotator(AnnotatorSpec{}, &pop.oracle).value();
  EXPECT_NE(dynamic_cast<SimulatedAnnotator*>(plain.get()), nullptr);

  const std::unique_ptr<Annotator> async =
      MakeAnnotator(AnnotatorSpec{.async = true}, &pop.oracle).value();
  EXPECT_NE(dynamic_cast<AsyncAnnotator*>(async.get()), nullptr);
  EXPECT_TRUE(async->AsyncCapable());
}

TEST(MakeAnnotatorTest, LatencyWithoutAsyncIsWaitedOutSynchronously) {
  // One builder for kgacc_eval, the daemon and the benches: a latency given
  // without the async bridge is applied through the synchronous facade, and
  // it still never changes a label.
  TestPopulation pop = MakeTestPopulation(50, 4, 0.9, 0.1, 28);
  const std::unique_ptr<Annotator> latent =
      MakeAnnotator(AnnotatorSpec{.latency_ms = 40.0}, &pop.oracle).value();
  ASSERT_NE(dynamic_cast<MockLatencyAnnotator*>(latent.get()), nullptr);
  EXPECT_FALSE(latent->AsyncCapable());

  const std::unique_ptr<Annotator> plain =
      MakeAnnotator(AnnotatorSpec{}, &pop.oracle).value();
  const std::vector<TripleRef> refs = MakeRefs(pop.population, 3, 29);
  const Clock::time_point start = Clock::now();
  for (const TripleRef& ref : refs) {
    EXPECT_EQ(latent->Annotate(ref), plain->Annotate(ref));
  }
  // Each first-seen triple waits at least half the 40 ms mean.
  EXPECT_GE(std::chrono::duration<double>(Clock::now() - start).count(),
            0.020);
}

}  // namespace
}  // namespace kgacc
