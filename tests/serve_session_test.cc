// The serve subsystem's headline guarantee: a campaign suspended into its
// campaign_state document and resumed (fresh session, fresh
// annotator, deterministic replay of the completed rounds) finishes with an
// EvaluationResult and telemetry trace bit-identical to the same campaign
// run uninterrupted — for every registry design and every
// --annotation-threads value. machine_seconds is wall time and is the one
// excluded field.

#include "serve/serve_session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "serve_test_util.h"

namespace kgacc::serve {
namespace {

using kgacc::testing::MakeServeGraphDataset;
using kgacc::testing::MakeServePopulationDataset;

struct Output {
  EvaluationResult result;
  CampaignTrace trace;
};

EvaluationOptions BaseOptions() {
  EvaluationOptions options;
  options.seed = 1234;
  // Tight target, small rounds: even the most efficient design
  // (twcs+strat, whose stratification slashes the units it needs) runs
  // well past the suspension points below.
  options.moe_target = 0.02;
  options.batch_units = 5;
  return options;
}

AnnotatorSpec BaseSpec(int threads) {
  AnnotatorSpec spec;
  spec.noise_rate = 0.1;
  spec.seed = 0xfeed;
  spec.annotation_threads = threads;
  return spec;
}

std::shared_ptr<const Dataset> DatasetFor(const std::string& design) {
  // kgeval needs real triples; everything else runs on the bigger
  // sizes-only population so campaigns last tens of rounds.
  static const std::shared_ptr<const Dataset> population =
      MakeServePopulationDataset(11);
  static const std::shared_ptr<const Dataset> graph = MakeServeGraphDataset(7);
  return design == "kgeval" ? graph : population;
}

Output Finish(ServeSession& session) {
  const Status status = session.Step(0);
  EXPECT_TRUE(status.ok()) << status.ToString();
  const ServeSession::Info info = session.GetInfo();
  EXPECT_EQ(info.state, ServeSession::State::kCompleted)
      << info.error.ToString();
  EXPECT_TRUE(info.has_result);
  return {info.result, session.TraceAfter(0)};
}

Output RunUninterrupted(const std::string& design, int threads) {
  ServeSession session({.id = "u",
                        .design = design,
                        .graph = "g",
                        .dataset = DatasetFor(design),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(threads)});
  return Finish(session);
}

/// What a suspend hands a client and a resume reads back: the state as its
/// campaign_state JSON document, parsed again.
CampaignSessionState ThroughJson(const CampaignSessionState& state) {
  const Result<JsonValue> json = JsonValue::Parse(CampaignStateJson(state));
  EXPECT_TRUE(json.ok()) << json.status().ToString();
  CampaignSessionState parsed;
  const Status status =
      json.ok() ? ParseCampaignState(*json, &parsed) : json.status();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return parsed;
}

/// Runs the campaign with a suspend/serialize/restore/resume cycle after
/// each prefix in `steps`, then to completion. Every cycle rebuilds the
/// session from nothing but the persisted state document (plus the graph,
/// which the daemon reloads by name).
Output RunWithSuspensions(const std::string& design, int threads,
                          const std::vector<uint64_t>& steps) {
  auto session = std::make_unique<ServeSession>(
      ServeSession::Config{.id = "i0",
                           .design = design,
                           .graph = "g",
                           .dataset = DatasetFor(design),
                           .options = BaseOptions(),
                           .annotator = BaseSpec(threads)});
  int generation = 0;
  for (const uint64_t rounds : steps) {
    EXPECT_TRUE(session->Step(rounds).ok());
    Result<CampaignSessionState> suspended = session->Suspend();
    EXPECT_TRUE(suspended.ok()) << suspended.status().ToString();
    if (!suspended.ok()) break;
    const CampaignSessionState state = ThroughJson(*suspended);

    session = std::make_unique<ServeSession>(
        ServeSession::Config{.id = "i" + std::to_string(++generation),
                             .design = state.design,
                             .graph = state.graph,
                             .dataset = DatasetFor(state.design),
                             .options = state.options,
                             .annotator = state.annotator,
                             .replay_rounds = state.rounds_completed});
    EXPECT_EQ(session->TraceAfter(0).rounds.size(),
              design == "kgeval" ? 0u : state.rounds_completed);
  }
  return Finish(*session);
}

void ExpectBitIdentical(const Output& a, const Output& b,
                        const std::string& context) {
  SCOPED_TRACE(context);
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
  // machine_seconds is wall time: legitimately different, deliberately not
  // compared (and absent from traces, so those byte-compare below).

  EXPECT_EQ(a.trace.design, b.trace.design);
  EXPECT_EQ(a.trace.converged, b.trace.converged);
  ASSERT_EQ(a.trace.rounds.size(), b.trace.rounds.size());
  for (size_t r = 0; r < a.trace.rounds.size(); ++r) {
    // Byte-compare the serialized rounds — the same check CI applies to
    // streamed traces.
    EXPECT_EQ(RoundToJson(a.trace.rounds[r]), RoundToJson(b.trace.rounds[r]))
        << "round " << r;
  }
}

// The design is a std::string, not a const char*: gtest prints a pointer
// parameter as its address, which would put a per-run address into the
// listed test names.
class SuspendResumeTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SuspendResumeTest, ResumeIsBitIdenticalToUninterrupted) {
  const std::string design = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  const Output uninterrupted = RunUninterrupted(design, threads);
  ASSERT_GT(uninterrupted.result.rounds, 4u)
      << "campaign too short to suspend mid-flight";

  // One suspension early on.
  ExpectBitIdentical(uninterrupted, RunWithSuspensions(design, threads, {2}),
                     design + "/suspend@2");
  // Two suspensions at staggered, step-misaligned boundaries (round 1, then
  // round 4 after a 3-round step).
  ExpectBitIdentical(uninterrupted,
                     RunWithSuspensions(design, threads, {1, 3}),
                     design + "/suspend@1+3");
}

INSTANTIATE_TEST_SUITE_P(
    Designs, SuspendResumeTest,
    ::testing::Combine(::testing::Values("srs", "rcs", "wcs", "twcs",
                                         "twcs+strat", "twcs+pilot", "rs",
                                         "ss", "kgeval"),
                       ::testing::Values(1, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name + "_threads" + std::to_string(std::get<1>(info.param));
    });

TEST(ServeSessionTest, AnnotatorPoolResumesBitIdentically) {
  // Majority-vote pools rebuild from the spec on resume too.
  AnnotatorSpec spec = BaseSpec(4);
  spec.annotators = 3;
  EvaluationOptions options = BaseOptions();
  ServeSession uninterrupted({.id = "u",
                              .design = "twcs",
                              .graph = "g",
                              .dataset = DatasetFor("twcs"),
                              .options = options,
                              .annotator = spec});
  const Output expected = Finish(uninterrupted);

  ServeSession first({.id = "a",
                      .design = "twcs",
                      .graph = "g",
                      .dataset = DatasetFor("twcs"),
                      .options = options,
                      .annotator = spec});
  ASSERT_TRUE(first.Step(3).ok());
  Result<CampaignSessionState> suspended = first.Suspend();
  ASSERT_TRUE(suspended.ok()) << suspended.status().ToString();
  const CampaignSessionState state = ThroughJson(*suspended);
  EXPECT_EQ(state.annotator.annotators, 3u);
  ServeSession resumed({.id = "b",
                        .design = state.design,
                        .graph = state.graph,
                        .dataset = DatasetFor(state.design),
                        .options = state.options,
                        .annotator = state.annotator,
                        .replay_rounds = state.rounds_completed});
  ExpectBitIdentical(expected, Finish(resumed), "pool/suspend@3");
}

TEST(ServeSessionTest, StepAfterCompletionIsBenign) {
  ServeSession session({.id = "s",
                        .design = "srs",
                        .graph = "g",
                        .dataset = DatasetFor("srs"),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(1)});
  ASSERT_TRUE(session.Step(0).ok());
  EXPECT_EQ(session.GetInfo().state, ServeSession::State::kCompleted);
  EXPECT_TRUE(session.Step(5).ok());  // nothing left to run.
  EXPECT_FALSE(session.Suspend().ok());
}

TEST(ServeSessionTest, StoppedSessionRejectsSteps) {
  ServeSession session({.id = "s",
                        .design = "twcs",
                        .graph = "g",
                        .dataset = DatasetFor("twcs"),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(1)});
  ASSERT_TRUE(session.Step(2).ok());
  ASSERT_TRUE(session.Stop().ok());
  EXPECT_EQ(session.GetInfo().state, ServeSession::State::kStopped);
  EXPECT_FALSE(session.Step(1).ok());
  EXPECT_FALSE(session.Suspend().ok());
}

TEST(ServeSessionTest, SuspendedSessionKeepsItsTraceReadable) {
  ServeSession session({.id = "s",
                        .design = "twcs",
                        .graph = "g",
                        .dataset = DatasetFor("twcs"),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(1)});
  ASSERT_TRUE(session.Step(3).ok());
  ASSERT_TRUE(session.Suspend().ok());
  EXPECT_EQ(session.TraceAfter(0).rounds.size(), 3u);
  EXPECT_EQ(session.TraceAfter(1).rounds.size(), 2u);
}

AnnotatorSpec AsyncSpec(int threads) {
  AnnotatorSpec spec = BaseSpec(threads);
  spec.async = true;
  spec.latency_ms = 0.2;  // real (nonzero) in-flight latency, test-sized.
  spec.max_concurrent = 8;
  return spec;
}

TEST(ServeSessionTest, AsyncAnnotatorStepsAndSuspendsBitIdentically) {
  // The async bridge under the serve lifecycle: a campaign stepped and
  // suspended with annotations in flight each round must (a) persist its
  // async spec into its campaign_state, and (b) resume to a result
  // bit-identical to the plain synchronous annotator run uninterrupted —
  // the bridge and the suspend machinery compose without touching results.
  const Output expected = RunUninterrupted("twcs", 4);

  ServeSession first({.id = "a",
                      .design = "twcs",
                      .graph = "g",
                      .dataset = DatasetFor("twcs"),
                      .options = BaseOptions(),
                      .annotator = AsyncSpec(4)});
  ASSERT_TRUE(first.Step(3).ok());
  Result<CampaignSessionState> suspended = first.Suspend();
  ASSERT_TRUE(suspended.ok()) << suspended.status().ToString();
  const CampaignSessionState state = ThroughJson(*suspended);
  EXPECT_TRUE(state.annotator.async);
  EXPECT_EQ(state.annotator.latency_ms, 0.2);
  EXPECT_EQ(state.annotator.max_concurrent, 8u);

  ServeSession resumed({.id = "b",
                        .design = state.design,
                        .graph = state.graph,
                        .dataset = DatasetFor(state.design),
                        .options = state.options,
                        .annotator = state.annotator,
                        .replay_rounds = state.rounds_completed});
  ExpectBitIdentical(expected, Finish(resumed), "async/suspend@3");
}

TEST(ServeSessionTest, AsyncAnnotatorStopIsPromptDespitePendingLatency) {
  // Stop (and the destructor) cancels pending simulated waits; a stopped
  // async session must not serve out the remaining latencies.
  AnnotatorSpec spec = AsyncSpec(1);
  spec.latency_ms = 5.0;
  ServeSession session({.id = "s",
                        .design = "twcs",
                        .graph = "g",
                        .dataset = DatasetFor("twcs"),
                        .options = BaseOptions(),
                        .annotator = spec});
  ASSERT_TRUE(session.Step(2).ok());
  ASSERT_TRUE(session.Stop().ok());
  EXPECT_EQ(session.GetInfo().state, ServeSession::State::kStopped);
  // The completed rounds stay intact.
  EXPECT_EQ(session.TraceAfter(0).rounds.size(), 2u);
}

TEST(ServeSessionTest, StepRunsExactlyThatManyRounds) {
  ServeSession session({.id = "s",
                        .design = "twcs",
                        .graph = "g",
                        .dataset = DatasetFor("twcs"),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(1)});
  EXPECT_EQ(session.GetInfo().rounds, 0u);  // built, no round run yet.
  uint64_t expected = 0;
  for (const uint64_t rounds : {1u, 2u, 3u}) {
    ASSERT_TRUE(session.Step(rounds).ok());
    expected += rounds;
    EXPECT_EQ(session.GetInfo().rounds, expected);
    EXPECT_EQ(session.GetInfo().state, ServeSession::State::kRunning);
  }
}

TEST(ServeSessionTest, StepZeroRunsToCompletion) {
  ServeSession session({.id = "s",
                        .design = "twcs",
                        .graph = "g",
                        .dataset = DatasetFor("twcs"),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(1)});
  ASSERT_TRUE(session.Step(0).ok());
  const ServeSession::Info info = session.GetInfo();
  EXPECT_EQ(info.state, ServeSession::State::kCompleted);
  ASSERT_TRUE(info.has_result);
  EXPECT_TRUE(info.result.converged);
  EXPECT_FALSE(info.result.suspended);
  EXPECT_EQ(info.rounds, info.result.rounds);
  EXPECT_TRUE(session.TraceAfter(0).converged);
}

TEST(ServeSessionTest, ResumeReplaysItsRoundsBeforeReturning) {
  ServeSession session({.id = "s",
                        .design = "twcs",
                        .graph = "g",
                        .dataset = DatasetFor("twcs"),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(1),
                        .replay_rounds = 3});
  EXPECT_EQ(session.GetInfo().state, ServeSession::State::kRunning);
  EXPECT_EQ(session.GetInfo().rounds, 3u);
  EXPECT_EQ(session.TraceAfter(0).rounds.size(), 3u);
}

TEST(ServeSessionTest, ResumedSessionSuspendedAtOnceKeepsItsRounds) {
  // A resumed session replays its rounds before the constructor returns,
  // so suspending it straight away saves the same position, never less.
  for (const char* design : {"twcs", "ss", "kgeval"}) {
    SCOPED_TRACE(design);
    ServeSession first({.id = "a",
                        .design = design,
                        .graph = "g",
                        .dataset = DatasetFor(design),
                        .options = BaseOptions(),
                        .annotator = BaseSpec(1)});
    ASSERT_TRUE(first.Step(4).ok());
    Result<CampaignSessionState> suspended = first.Suspend();
    ASSERT_TRUE(suspended.ok()) << suspended.status().ToString();
    const CampaignSessionState state = ThroughJson(*suspended);
    ASSERT_EQ(state.rounds_completed, 4u);

    ServeSession resumed({.id = "b",
                          .design = state.design,
                          .graph = state.graph,
                          .dataset = DatasetFor(state.design),
                          .options = state.options,
                          .annotator = state.annotator,
                          .replay_rounds = state.rounds_completed});
    Result<CampaignSessionState> again = resumed.Suspend();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->rounds_completed, 4u);
    EXPECT_EQ(resumed.GetInfo().state, ServeSession::State::kSuspended);
  }
}

/// How a second thread ends a session that another thread is running to
/// completion with Step(0).
enum class EndBy { kSuspend, kStop };

class ServeInterruptTest
    : public ::testing::TestWithParam<std::tuple<bool, EndBy>> {};

TEST_P(ServeInterruptTest, EndsStepZeroWithinOneRound) {
  const bool async = std::get<0>(GetParam());
  const EndBy end_by = std::get<1>(GetParam());
  // Every triple takes 5 to 15 s to annotate (the latency cap's mean), with
  // the synchronous latency facade or through the async bridge: the
  // campaign cannot finish, and a suspend or stop that waited for its round,
  // or only for the triple in flight, instead of cancelling the wait would
  // take at least 5 s.
  AnnotatorSpec spec = BaseSpec(1);
  spec.async = async;
  spec.latency_ms = kMaxLatencyMs;
  ServeSession session({.id = "s",
                        .design = "twcs",
                        .graph = "g",
                        .dataset = DatasetFor("twcs"),
                        .options = BaseOptions(),
                        .annotator = spec});
  Status stepped = Status::Internal("Step(0) did not return");
  std::thread runner([&] { stepped = session.Step(0); });
  // Let the runner get into its first round's wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  uint64_t rounds = 0;
  if (end_by == EndBy::kSuspend) {
    Result<CampaignSessionState> suspended = session.Suspend();
    ASSERT_TRUE(suspended.ok()) << suspended.status().ToString();
    rounds = suspended->rounds_completed;
  } else {
    ASSERT_TRUE(session.Stop().ok());
    rounds = session.GetInfo().result.rounds;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  runner.join();

  // OK when the runner was mid-round; a runner that only reached Step()
  // after the session ended is refused like any late step.
  EXPECT_TRUE(stepped.ok() || stepped.IsFailedPrecondition())
      << stepped.ToString();
  EXPECT_LT(seconds, 4.0);
  EXPECT_LE(rounds, 1u);  // at most the round that was in flight.
  const ServeSession::Info info = session.GetInfo();
  EXPECT_EQ(info.state, end_by == EndBy::kSuspend
                            ? ServeSession::State::kSuspended
                            : ServeSession::State::kStopped);
  EXPECT_EQ(info.rounds, rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Annotators, ServeInterruptTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(EndBy::kSuspend, EndBy::kStop)),
    [](const ::testing::TestParamInfo<std::tuple<bool, EndBy>>& info) {
      return std::string(std::get<0>(info.param) ? "Async" : "Sync") +
             (std::get<1>(info.param) == EndBy::kSuspend ? "Suspend"
                                                         : "Stop");
    });

}  // namespace
}  // namespace kgacc::serve
