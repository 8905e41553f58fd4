#include "core/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "core/design_registry.h"
#include "test_util.h"

namespace kgacc {
namespace {

using kgacc::testing::MakeTestPopulation;
using kgacc::testing::TestPopulation;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

EvaluationResult RunTraced(const char* design, TraceRecorder* recorder,
                           uint64_t seed, CiMethod srs_ci = CiMethod::kWald) {
  TestPopulation pop = MakeTestPopulation(600, 12, 0.8, 0.15, 4242);
  EvaluationOptions options;
  options.seed = seed;
  options.srs_ci = srs_ci;
  options.telemetry = recorder;
  SimulatedAnnotator annotator(&pop.oracle, kCost);
  Result<EvaluationResult> run = DesignRegistry::Global().Run(
      design, pop.population, &annotator, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

TEST(TelemetryTest, EngineEmitsOneRoundPerIteration) {
  for (const char* design : {"srs", "rcs", "wcs", "twcs", "twcs+strat"}) {
    SCOPED_TRACE(design);
    TraceRecorder recorder;
    const EvaluationResult result = RunTraced(design, &recorder, 7);
    ASSERT_EQ(recorder.campaigns().size(), 1u);
    const CampaignTrace& trace = recorder.campaigns()[0];
    EXPECT_EQ(trace.design, result.design);
    EXPECT_EQ(trace.converged, result.converged);
    ASSERT_EQ(trace.rounds.size(), result.rounds);
    const Status valid = ValidateTrace(trace);
    EXPECT_TRUE(valid.ok()) << valid.ToString();

    // The last round is the campaign's terminal state.
    const CampaignRound& last = trace.rounds.back();
    EXPECT_EQ(last.estimate, result.estimate.mean);
    EXPECT_EQ(last.moe, result.moe);
    EXPECT_EQ(last.units, result.estimate.num_units);
    EXPECT_EQ(last.cost_seconds, result.annotation_seconds);
    EXPECT_EQ(last.triples_annotated, result.ledger.triples_annotated);
    EXPECT_EQ(last.entities_identified, result.ledger.entities_identified);
  }
}

TEST(TelemetryTest, TraceCiBoundsBracketEstimateAndCostIsMonotone) {
  TraceRecorder recorder;
  RunTraced("twcs", &recorder, 11);
  const CampaignTrace& trace = recorder.campaigns().at(0);
  double previous_cost = 0.0;
  for (const CampaignRound& round : trace.rounds) {
    EXPECT_LE(round.ci_lower, round.estimate);
    EXPECT_GE(round.ci_upper, round.estimate);
    EXPECT_GE(round.cost_seconds, previous_cost);
    previous_cost = round.cost_seconds;
  }
}

TEST(TelemetryTest, SrsWilsonTraceUsesWilsonBounds) {
  TraceRecorder recorder;
  const EvaluationResult result =
      RunTraced("srs", &recorder, 13, CiMethod::kWilson);
  const CampaignTrace& trace = recorder.campaigns().at(0);
  ASSERT_FALSE(trace.rounds.empty());
  for (const CampaignRound& round : trace.rounds) {
    // Wilson bounds always lie strictly inside (0, 1) and bracket the
    // estimate; the half-width matches the stopping rule's MoE.
    EXPECT_GT(round.ci_lower, 0.0);
    EXPECT_LT(round.ci_upper, 1.0);
    EXPECT_LE(round.ci_lower, round.estimate + 1e-12);
    EXPECT_GE(round.ci_upper, round.estimate - 1e-12);
    EXPECT_NEAR((round.ci_upper - round.ci_lower) / 2.0, round.moe, 1e-12);
  }
  EXPECT_TRUE(result.converged);
}

TEST(TelemetryTest, ValidateTraceRejectsBrokenTrajectories) {
  CampaignTrace trace;
  trace.design = "TWCS";
  EXPECT_FALSE(ValidateTrace(trace).ok());  // no rounds.

  const CampaignRound good{.round = 1,
                           .cost_seconds = 10.0,
                           .units = 5,
                           .estimate = 0.9,
                           .ci_lower = 0.8,
                           .ci_upper = 1.0,
                           .moe = 0.1,
                           .triples_annotated = 25,
                           .entities_identified = 5};
  trace.rounds = {good};
  EXPECT_TRUE(ValidateTrace(trace).ok());

  // Cost decreasing.
  CampaignRound second = good;
  second.round = 2;
  second.cost_seconds = 9.0;
  trace.rounds = {good, second};
  EXPECT_FALSE(ValidateTrace(trace).ok());

  // Round index not increasing.
  second = good;
  trace.rounds = {good, second};
  EXPECT_FALSE(ValidateTrace(trace).ok());

  // CI not bracketing the estimate.
  CampaignRound bad_ci = good;
  bad_ci.ci_lower = 0.95;
  trace.rounds = {bad_ci};
  EXPECT_FALSE(ValidateTrace(trace).ok());

  // Units shrinking.
  second = good;
  second.round = 2;
  second.units = 4;
  trace.rounds = {good, second};
  EXPECT_FALSE(ValidateTrace(trace).ok());
}

TEST(TelemetryTest, JsonRoundTripsBitExactly) {
  TraceRecorder recorder;
  recorder.SetLabelPrefix("cellA/");
  RunTraced("twcs", &recorder, 17);
  recorder.SetLabelPrefix("cellB/");
  RunTraced("srs", &recorder, 19, CiMethod::kWilson);
  ASSERT_EQ(recorder.campaigns().size(), 2u);
  EXPECT_EQ(recorder.campaigns()[0].label, "cellA/");
  EXPECT_EQ(recorder.campaigns()[1].label, "cellB/");

  const std::string path = testing::TempPath("telemetry_roundtrip.json");
  ASSERT_TRUE(WriteTraceJson(path, recorder.campaigns(), {{"truth", 0.8}})
                  .ok());
  const Result<std::vector<CampaignTrace>> read = ReadTraceJson(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), recorder.campaigns().size());
  for (size_t c = 0; c < read->size(); ++c) {
    const CampaignTrace& original = recorder.campaigns()[c];
    const CampaignTrace& restored = (*read)[c];
    EXPECT_EQ(restored.design, original.design);
    EXPECT_EQ(restored.label, original.label);
    EXPECT_EQ(restored.converged, original.converged);
    ASSERT_EQ(restored.rounds.size(), original.rounds.size());
    for (size_t r = 0; r < restored.rounds.size(); ++r) {
      EXPECT_EQ(restored.rounds[r].round, original.rounds[r].round);
      EXPECT_EQ(restored.rounds[r].cost_seconds,
                original.rounds[r].cost_seconds);
      EXPECT_EQ(restored.rounds[r].units, original.rounds[r].units);
      EXPECT_EQ(restored.rounds[r].estimate, original.rounds[r].estimate);
      EXPECT_EQ(restored.rounds[r].ci_lower, original.rounds[r].ci_lower);
      EXPECT_EQ(restored.rounds[r].ci_upper, original.rounds[r].ci_upper);
      EXPECT_EQ(restored.rounds[r].moe, original.rounds[r].moe);
      EXPECT_EQ(restored.rounds[r].triples_annotated,
                original.rounds[r].triples_annotated);
      EXPECT_EQ(restored.rounds[r].entities_identified,
                original.rounds[r].entities_identified);
    }
    EXPECT_TRUE(ValidateTrace(restored).ok());
  }
}

TEST(TelemetryTest, ReadRejectsForeignAndMalformedDocuments) {
  EXPECT_FALSE(ReadTraceJson(testing::TempPath("does_not_exist.json")).ok());

  const auto write = [&](const char* name, const char* content) {
    const std::string path = testing::TempPath(name);
    FILE* f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fputs(content, f);
    std::fclose(f);
    return path;
  };
  EXPECT_FALSE(ReadTraceJson(write("garbage.json", "not json")).ok());
  // Count fields must be non-negative integers: a hand-crafted trace with
  // units -5 is a validation error, not a wrapping float->uint64 cast.
  EXPECT_FALSE(
      ReadTraceJson(
          write("negative_units.json",
                "{\"schema\": \"kgacc-trace-v1\", \"campaigns\": ["
                "{\"design\": \"X\", \"label\": \"\", \"converged\": true,"
                " \"rounds\": [{\"round\": 1, \"cost_seconds\": 1.0,"
                " \"units\": -5, \"estimate\": 0.5, \"ci_lower\": 0.4,"
                " \"ci_upper\": 0.6, \"moe\": 0.1, \"triples_annotated\": 2,"
                " \"entities_identified\": 1}]}]}"))
          .ok());
  EXPECT_FALSE(
      ReadTraceJson(
          write("fractional_round.json",
                "{\"schema\": \"kgacc-trace-v1\", \"campaigns\": ["
                "{\"design\": \"X\", \"label\": \"\", \"converged\": true,"
                " \"rounds\": [{\"round\": 1.5, \"cost_seconds\": 1.0,"
                " \"units\": 5, \"estimate\": 0.5, \"ci_lower\": 0.4,"
                " \"ci_upper\": 0.6, \"moe\": 0.1, \"triples_annotated\": 2,"
                " \"entities_identified\": 1}]}]}"))
          .ok());
  EXPECT_FALSE(
      ReadTraceJson(write("wrong_schema.json",
                          "{\"schema\": \"other-v9\", \"campaigns\": []}"))
          .ok());
  EXPECT_FALSE(
      ReadTraceJson(write("no_campaigns.json",
                          "{\"schema\": \"kgacc-trace-v1\"}"))
          .ok());
  const Result<std::vector<CampaignTrace>> empty = ReadTraceJson(
      write("empty.json", "{\"schema\": \"kgacc-trace-v1\", \"metadata\": {},"
                          " \"campaigns\": []}"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(TelemetryTest, TwcsPilotTraceCarriesDesignAndPilotBill) {
  TraceRecorder recorder;
  const EvaluationResult result = RunTraced("twcs+pilot", &recorder, 23);
  ASSERT_EQ(recorder.campaigns().size(), 1u);
  const CampaignTrace& trace = recorder.campaigns()[0];
  // The trace agrees with the result the same run returned: right design
  // label, cumulative fields covering pilot + campaign.
  EXPECT_EQ(trace.design, "TWCS+pilot");
  ASSERT_FALSE(trace.rounds.empty());
  const CampaignRound& last = trace.rounds.back();
  EXPECT_EQ(last.cost_seconds, result.annotation_seconds);
  EXPECT_EQ(last.triples_annotated, result.ledger.triples_annotated);
  EXPECT_EQ(last.entities_identified, result.ledger.entities_identified);
  // The pilot's effort is visible from round one.
  EXPECT_GT(trace.rounds.front().cost_seconds, 0.0);
  const Status valid = ValidateTrace(trace);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(TelemetryTest, RecorderOpensAnonymousCampaignForBareRounds) {
  TraceRecorder recorder;
  recorder.OnRound(CampaignRound{.round = 1, .ci_upper = 1.0});
  recorder.EndCampaign(true);
  ASSERT_EQ(recorder.campaigns().size(), 1u);
  EXPECT_TRUE(recorder.campaigns()[0].converged);
  EXPECT_EQ(recorder.campaigns()[0].rounds.size(), 1u);
}

/// Parses a one-gate spec, asserting success.
Gate OneGate(const std::string& spec) {
  Result<std::vector<Gate>> gates = ParseGates(spec);
  EXPECT_TRUE(gates.ok()) << spec << ": " << gates.status().ToString();
  EXPECT_EQ(gates.ok() ? gates->size() : 0u, 1u) << spec;
  return gates.ok() && gates->size() == 1 ? gates->front() : Gate{};
}

TEST(TelemetryTest, GateParsesEachOperator) {
  const struct {
    const char* spec;
    Gate::Op op;
  } cases[] = {{"a.x<2.5", Gate::Op::kLess},
               {"a.x<=2.5", Gate::Op::kLessEqual},
               {"a.x>2.5", Gate::Op::kGreater},
               {" a.x >= 2.5 ", Gate::Op::kGreaterEqual}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    const Gate gate = OneGate(c.spec);
    EXPECT_EQ(gate.metric, "a.x");
    EXPECT_EQ(gate.op, c.op);
    EXPECT_EQ(gate.threshold, 2.5);
    EXPECT_EQ(OneGate(gate.ToString()).op, c.op);  // spelling round-trips.
  }
  Result<std::vector<Gate>> list =
      ParseGates("chrome.span_threads>=2,kgstore.max_open_ms<=50,x>-1e-3");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[1].metric, "kgstore.max_open_ms");
  EXPECT_EQ((*list)[2].threshold, -1e-3);
}

TEST(TelemetryTest, GateRejectsMalformedSpecs) {
  for (const char* spec :
       {"a.x=3", "a.x", "",            // missing operator
        ">=3", " <1", "a,b>=1",        // empty name (also per entry)
        "a x>=1", "a=>1",              // malformed name
        "a>=", "a>=three", "a<=1x",    // non-numeric threshold
        "a>=inf", "a<nan", "a>1e999",  // non-finite threshold
        "a>=1,", "a>=1>=2"}) {
    SCOPED_TRACE(spec);
    const Result<std::vector<Gate>> gates = ParseGates(spec);
    EXPECT_FALSE(gates.ok());
  }
}

TEST(TelemetryTest, GateBoundariesAreExact) {
  EXPECT_TRUE(OneGate("x>=3").Admits(3.0));
  EXPECT_FALSE(OneGate("x>3").Admits(3.0));
  EXPECT_TRUE(OneGate("x>3").Admits(3.0000001));
  EXPECT_TRUE(OneGate("x<=3").Admits(3.0));
  EXPECT_FALSE(OneGate("x<3").Admits(3.0));
  EXPECT_TRUE(OneGate("x<3").Admits(2.9999999));
  EXPECT_FALSE(OneGate("x>=3").Admits(2.9999999));
  EXPECT_FALSE(OneGate("x<=3").Admits(3.0000001));
}

TEST(TelemetryTest, GateCoverageFailsWhenAGatedKindNeverAppears) {
  // The kgacc_trace_check regression this pins: a gate whose metric no
  // input carries must fail loudly, never pass vacuously (a renamed bench
  // artifact or metric would otherwise silently disarm CI).
  const std::vector<Gate> gates = {OneGate("async_annotate.gated_speedup>=3"),
                                   OneGate("serve_latency.max_p99_ms<=250")};

  const Status uncovered =
      CheckGates(gates, {{"serve_latency.max_p99_ms", {2.2}},
                         {"chrome.span_threads", {5}}});
  EXPECT_FALSE(uncovered.ok());
  // The message must name the gate and its missing metric — that is what
  // makes the failure actionable from a CI log.
  EXPECT_NE(uncovered.message().find("async_annotate.gated_speedup>=3"),
            std::string::npos)
      << uncovered.message();
  EXPECT_NE(uncovered.message().find("no input carries"), std::string::npos)
      << uncovered.message();
  EXPECT_EQ(uncovered.message().find("serve_latency"), std::string::npos)
      << uncovered.message();

  const Status covered = CheckGates(
      gates, {{"async_annotate.gated_speedup", {20.7}},
              {"serve_latency.max_p99_ms", {2.2}}});
  EXPECT_TRUE(covered.ok()) << covered.ToString();

  // No gates: any input (even none) is fine.
  EXPECT_TRUE(CheckGates({}, {}).ok());
  EXPECT_TRUE(CheckGates({}, {{"x", {1.0}}}).ok());
  // A metric seen in several inputs covers its gate once, and every
  // sighting must pass it.
  EXPECT_TRUE(CheckGates({OneGate("x<=3")}, {{"x", {1.0, 3.0}}}).ok());
  const Status one_bad = CheckGates({OneGate("x<=3")}, {{"x", {1.0, 4.0}}});
  EXPECT_FALSE(one_bad.ok());
  EXPECT_NE(one_bad.message().find("x<=3"), std::string::npos)
      << one_bad.message();
}

TEST(TelemetryTest, BenchArtifactRoundTripsThroughTheChecker) {
  const std::string path = testing::TempPath("bench_artifact.json");
  BenchArtifact artifact("demo");
  artifact.config().Key("seed").Uint(7).Key("mode").String("closed");
  artifact.SetMetric("speedup", 3.0);
  artifact.SetMetric("p99_ms", 0.1);
  artifact.SetMetric("speedup", 3.5);  // the last value wins.
  for (int i = 0; i < 3; ++i) {
    artifact.rows().BeginObject().Key("i").Int(i).EndObject();
  }
  ASSERT_TRUE(artifact.Write(path).ok());

  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  Result<JsonValue> doc = JsonValue::Parse(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<BenchSummary> summary = ParseBenchJson(*doc, path);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->bench, "demo");
  EXPECT_EQ(summary->rows, 3u);
  const std::map<std::string, double> want = {{"demo.p99_ms", 0.1},
                                              {"demo.speedup", 3.5}};
  EXPECT_EQ(summary->metrics, want);

  MetricObservations observed;
  for (const auto& [name, value] : summary->metrics) {
    observed[name].push_back(value);
  }
  const Result<std::vector<Gate>> pass =
      ParseGates("demo.speedup>=3.5,demo.p99_ms<=0.1");
  ASSERT_TRUE(pass.ok());
  EXPECT_TRUE(CheckGates(*pass, observed).ok());
  const Status fail = CheckGates({OneGate("demo.speedup>3.5")}, observed);
  EXPECT_FALSE(fail.ok());
  EXPECT_NE(fail.message().find("demo.speedup>3.5"), std::string::npos);

  // A non-finite metric is refused at write time.
  BenchArtifact bad("demo");
  bad.SetMetric("ratio", std::numeric_limits<double>::infinity());
  EXPECT_FALSE(bad.Write(path).ok());
  std::remove(path.c_str());
}

TEST(TelemetryTest, BenchEnvelopeRejectsMalformedDocuments) {
  const char* bad[] = {
      R"({"schema": "kgacc-trace-v1", "bench": "b", "config": {},
          "metrics": {}, "rows": []})",
      R"({"schema": "kgacc-bench-v2", "bench": "", "config": {},
          "metrics": {}, "rows": []})",
      R"({"schema": "kgacc-bench-v2", "bench": "b", "metrics": {},
          "rows": []})",
      R"({"schema": "kgacc-bench-v2", "bench": "b", "config": {},
          "metrics": {}, "rows": {}})",
      R"({"schema": "kgacc-bench-v2", "bench": "b", "config": {},
          "metrics": {"other.x": 1}, "rows": []})",
      R"({"schema": "kgacc-bench-v2", "bench": "b", "config": {},
          "metrics": {"b.x": "1"}, "rows": []})",
      R"({"schema": "kgacc-bench-v2", "bench": "b", "config": {},
          "metrics": {"b.": 1}, "rows": []})",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    Result<JsonValue> doc = JsonValue::Parse(text);
    ASSERT_TRUE(doc.ok());
    EXPECT_FALSE(ParseBenchJson(*doc, "doc").ok());
  }
}

}  // namespace
}  // namespace kgacc
