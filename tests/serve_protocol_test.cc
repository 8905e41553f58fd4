// kgacc-serve-v1 protocol: request builders and option parsing, plus the
// session manager's request dispatch edge cases (shared with kgacc_eval:
// the unknown-design message comes from the DesignRegistry in both).

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>

#include "core/design_registry.h"
#include "labels/annotator.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"
#include "serve/session_manager.h"
#include "serve_test_util.h"

namespace kgacc::serve {
namespace {

JsonValue ParseOrDie(const std::string& text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? *parsed : JsonValue();
}

TEST(ServeProtocolTest, ParsesEvaluationOptions) {
  const JsonValue json = ParseOrDie(
      R"({"moe_target": 0.02, "confidence": 0.9, "batch_units": 25,
          "seed": 7, "srs_ci": "wilson", "num_strata": 6, "m": 3,
          "pilot_size": 40, "min_units": 50, "max_units": 500,
          "max_cost_seconds": 100.5, "min_stratum_units": 12})");
  EvaluationOptions options;
  ASSERT_TRUE(ParseEvaluationOptions(json, &options).ok());
  EXPECT_EQ(options.moe_target, 0.02);
  EXPECT_EQ(options.confidence, 0.9);
  EXPECT_EQ(options.batch_units, 25u);
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.srs_ci, CiMethod::kWilson);
  EXPECT_EQ(options.num_strata, 6u);
  EXPECT_EQ(options.m, 3u);
  EXPECT_EQ(options.pilot_size, 40u);
  EXPECT_EQ(options.min_units, 50u);
  EXPECT_EQ(options.max_units, 500u);
  EXPECT_EQ(options.max_cost_seconds, 100.5);
  EXPECT_EQ(options.min_stratum_units, 12u);
}

TEST(ServeProtocolTest, AbsentMembersKeepDefaults) {
  EvaluationOptions options;
  ASSERT_TRUE(ParseEvaluationOptions(ParseOrDie("{}"), &options).ok());
  EXPECT_EQ(options.moe_target, EvaluationOptions().moe_target);
  EXPECT_EQ(options.batch_units, EvaluationOptions().batch_units);
}

TEST(ServeProtocolTest, RejectsUnknownOptionMembers) {
  EvaluationOptions options;
  const Status status = ParseEvaluationOptions(
      ParseOrDie(R"({"moe_tragte": 0.02})"), &options);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("moe_tragte"), std::string::npos);
}

/// What a request's options object amounts to: parsed for types, then
/// held to CheckEvaluationOptions' ranges (as MakeCampaign does).
Status ParseAndCheck(const std::string& text) {
  EvaluationOptions options;
  KGACC_RETURN_IF_ERROR(ParseEvaluationOptions(ParseOrDie(text), &options));
  return CheckEvaluationOptions(options);
}

TEST(ServeProtocolTest, RejectsOutOfRangeOptions) {
  EXPECT_FALSE(ParseAndCheck(R"({"moe_target": -1})").ok());
  EXPECT_FALSE(ParseAndCheck(R"({"confidence": 2})").ok());
  EXPECT_FALSE(ParseAndCheck(R"({"batch_units": 0})").ok());
  EvaluationOptions options;
  EXPECT_FALSE(ParseEvaluationOptions(
                   ParseOrDie(R"({"seed": 0.5})"), &options)
                   .ok());  // counts must be integers.
}

TEST(ServeProtocolTest, RejectsAStrataCountOverTheLimit) {
  const Status status = ParseAndCheck(R"({"num_strata": 300})");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("256"), std::string::npos)
      << status.message();
  EXPECT_TRUE(ParseAndCheck(R"({"num_strata": 256})").ok());
}

TEST(ServeProtocolTest, ParsesAnnotatorSpec) {
  const JsonValue json = ParseOrDie(
      R"({"annotators": 3, "noise_rate": 0.1, "seed": 99,
          "annotation_threads": 4, "c1_seconds": 40, "c2_seconds": 20})");
  AnnotatorSpec spec;
  ASSERT_TRUE(ParseAnnotatorSpec(json, &spec).ok());
  EXPECT_EQ(spec.annotators, 3u);
  EXPECT_EQ(spec.noise_rate, 0.1);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.annotation_threads, 4u);
  EXPECT_EQ(spec.c1_seconds, 40.0);
  EXPECT_EQ(spec.c2_seconds, 20.0);
}

TEST(ServeProtocolTest, RejectsBadAnnotatorSpec) {
  // Ranges are CheckAnnotatorSpec's; an unknown member is the parser's.
  const auto parse_and_check = [](const std::string& text) {
    AnnotatorSpec spec;
    KGACC_RETURN_IF_ERROR(ParseAnnotatorSpec(ParseOrDie(text), &spec));
    return CheckAnnotatorSpec(spec);
  };
  EXPECT_FALSE(parse_and_check(R"({"annotators": 0})").ok());
  EXPECT_FALSE(parse_and_check(R"({"noise_rate": 1.2})").ok());
  EXPECT_FALSE(parse_and_check(R"({"noize": 0.1})").ok());
}

TEST(ServeProtocolTest, BuildersEmitParseableRequests) {
  for (const std::string& request :
       {BuildLoadGraph("nell", 42), BuildStartCampaign("nell", "twcs"),
        BuildStartCampaign("g", "srs", R"({"moe_target": 0.1})",
                           R"({"annotators": 3})"),
        BuildStep("s1", 5), BuildQueryEstimate("s1"), BuildStreamTrace("s1"),
        BuildSuspend("s1"), BuildResumeSession("s1"),
        BuildResumeState(R"({"design": "twcs", "graph": "g"})"),
        BuildStop("s1"), BuildMetrics(), BuildShutdown()}) {
    const JsonValue json = ParseOrDie(request);
    ASSERT_TRUE(json.is_object()) << request;
    EXPECT_NE(json.Find("op"), nullptr) << request;
    EXPECT_EQ(request.find('\n'), std::string::npos) << request;
  }
}

TEST(ServeProtocolTest, UnknownDesignMessageMatchesRegistry) {
  // Satellite of the serve PR: kgacc_eval and the daemon's start-campaign
  // report unknown designs with the same registry-sourced message, so the
  // known-design listing can never drift between the two.
  GraphStore graphs;
  graphs.Put("g", kgacc::testing::MakeServePopulationDataset(1));
  SessionManager manager(&graphs);
  const SessionManager::Response response = manager.HandleLine(
      R"({"op": "start-campaign", "graph": "g", "design": "twsc"})");
  ASSERT_EQ(response.lines.size(), 1u);
  const std::string expected =
      DesignRegistry::Global().UnknownDesign("twsc").message();
  EXPECT_NE(response.lines[0].find(JsonEscape(expected)), std::string::npos)
      << response.lines[0] << "\nvs\n"
      << expected;
}

TEST(ServeProtocolTest, MalformedRequestLinesError) {
  GraphStore graphs;
  SessionManager manager(&graphs);
  for (const std::string& line :
       {std::string("not json"), std::string("{}"),
        std::string(R"({"op": "no-such-op"})"),
        std::string(R"({"op": "step"})"),
        std::string(R"({"op": "step", "session": "nope"})")}) {
    const SessionManager::Response response = manager.HandleLine(line);
    ASSERT_EQ(response.lines.size(), 1u) << line;
    EXPECT_NE(response.lines[0].find("\"ok\": false"), std::string::npos)
        << line << " -> " << response.lines[0];
    EXPECT_FALSE(response.shutdown);
  }
}

bool IsOk(const SessionManager::Response& response) {
  return !response.lines.empty() &&
         response.lines[0].find("\"ok\": true") != std::string::npos;
}

TEST(ServeProtocolTest, RejectsAMisplacedOptionAtTheTopLevel) {
  // "moe_target" belongs inside "options"; ignoring it at the top level
  // would silently run a default 5% campaign.
  GraphStore graphs;
  graphs.Put("g", kgacc::testing::MakeServePopulationDataset(1));
  SessionManager manager(&graphs);
  const SessionManager::Response response = manager.HandleLine(
      R"({"op":"start-campaign","graph":"g","design":"twcs","moe_target":0.01})");
  ASSERT_EQ(response.lines.size(), 1u);
  EXPECT_FALSE(IsOk(response)) << response.lines[0];
  EXPECT_NE(response.lines[0].find("unknown key 'moe_target'"),
            std::string::npos)
      << response.lines[0];
  EXPECT_TRUE(IsOk(manager.HandleLine(
      BuildStartCampaign("g", "twcs", R"({"moe_target": 0.01})"))));
}

TEST(ServeProtocolTest, AMistypedMemberIsATypeErrorNamingIt) {
  // A present member of the wrong type is not reported as missing, so a
  // client can tell a mistyped value from a misspelt key.
  GraphStore graphs;
  graphs.Put("g", kgacc::testing::MakeServePopulationDataset(1));
  SessionManager manager(&graphs);
  CampaignScheduler scheduler(&graphs, CampaignScheduler::Options{});
  manager.AttachScheduler(&scheduler);
  ASSERT_TRUE(IsOk(manager.HandleLine(BuildStartCampaign("g", "twcs"))));
  for (const auto& [line, member] :
       {std::pair{R"({"op": "step", "session": "s1", "rounds": "x"})",
                  "'rounds' must be a number"},
        std::pair{R"({"op": "step", "session": 1})",
                  "'session' must be a string"},
        std::pair{R"({"op": "start-campaign", "graph": "g", "design": "twcs",
                      "tenant": "yes"})",
                  "'tenant' must be a bool"},
        std::pair{R"({"op": "start-campaign", "graph": "g", "design": "twcs",
                      "tenant": true, "id": 5})",
                  "'id' must be a string"},
        std::pair{R"({"op": "start-campaign", "graph": "g", "design": "twcs",
                      "options": {"moe_target": "0.1"}})",
                  "'moe_target' must be a number"},
        std::pair{R"({"op": "start-campaign", "graph": "g", "design": "twcs",
                      "annotator": {"async": 1}})",
                  "'async' must be a bool"}}) {
    const SessionManager::Response response = manager.HandleLine(line);
    ASSERT_EQ(response.lines.size(), 1u) << line;
    EXPECT_NE(response.lines[0].find("\"error\": \"InvalidArgument: "),
              std::string::npos)
        << line << " -> " << response.lines[0];
    EXPECT_NE(response.lines[0].find(member), std::string::npos)
        << line << " -> " << response.lines[0];
  }
  EXPECT_EQ(scheduler.NumTenants(), 0u);
}

TEST(ServeProtocolTest, ARepeatedMemberIsRefusedNamingIt) {
  // Either copy winning would run a configuration the client did not
  // state; a refused start takes no session id.
  GraphStore graphs;
  graphs.Put("g", kgacc::testing::MakeServePopulationDataset(1));
  SessionManager manager(&graphs);
  for (const auto& [line, member] :
       {std::pair{R"({"op": "start-campaign", "graph": "g", "design": "twcs",
                      "options": {"moe_target": 0.1, "moe_target": 0.01}})",
                  "duplicate member 'moe_target'"},
        std::pair{R"({"op": "step", "session": 1e308, "session": "s11"})",
                  "duplicate member 'session'"}}) {
    const SessionManager::Response response = manager.HandleLine(line);
    ASSERT_EQ(response.lines.size(), 1u) << line;
    EXPECT_FALSE(IsOk(response)) << line << " -> " << response.lines[0];
    EXPECT_NE(response.lines[0].find("\"error\": \"InvalidArgument: "),
              std::string::npos)
        << line << " -> " << response.lines[0];
    EXPECT_NE(response.lines[0].find(member), std::string::npos)
        << line << " -> " << response.lines[0];
  }
  const SessionManager::Response started =
      manager.HandleLine(BuildStartCampaign("g", "twcs"));
  ASSERT_TRUE(IsOk(started)) << started.lines[0];
  EXPECT_NE(started.lines[0].find("\"session\": \"s1\""), std::string::npos)
      << started.lines[0];
}

TEST(ServeProtocolTest, StrataCountOverTheLimitFailsOnlyItsRequest) {
  // An out-of-range count fails its own request instead of reaching a fatal
  // check that would take every session down; the next request is served.
  GraphStore graphs;
  graphs.Put("g", kgacc::testing::MakeServePopulationDataset(1));
  SessionManager manager(&graphs);
  const SessionManager::Response refused = manager.HandleLine(
      BuildStartCampaign("g", "twcs+strat", R"({"num_strata": 300})"));
  ASSERT_EQ(refused.lines.size(), 1u);
  EXPECT_FALSE(IsOk(refused));
  EXPECT_NE(refused.lines[0].find("256"), std::string::npos)
      << refused.lines[0];
  EXPECT_TRUE(IsOk(manager.HandleLine(
      BuildStartCampaign("g", "twcs+strat", R"({"num_strata": 4})"))));
  EXPECT_TRUE(IsOk(manager.HandleLine(BuildStep("s1", 1))));
}

/// The request each op's Build* helper makes, against the session "s1" and
/// tenant "t1" that the fixture below creates.
std::string BuiltRequest(const std::string& op) {
  if (op == "load-graph") return BuildLoadGraph("g", 1);
  if (op == "start-campaign") {
    return BuildStartCampaign("g", "twcs", R"({"moe_target": 0.1})",
                              R"({"annotators": 3})");
  }
  if (op == "start-tenant") {
    return BuildStartTenantCampaign("g", "srs", R"({"seed": 5})", "", 2.0,
                                    100.0, "t2");
  }
  if (op == "step") return BuildStep("s1", 1);
  if (op == "query-estimate") return BuildQueryEstimate("s1");
  if (op == "stream-trace") return BuildStreamTrace("s1", 0);
  if (op == "suspend") return BuildSuspend("s1");
  if (op == "resume") return BuildResumeSession("s1");
  if (op == "resume-state") {
    return BuildResumeState(R"({"design": "twcs", "graph": "g", "rounds": 1})");
  }
  if (op == "stop") return BuildStop("s1");
  if (op == "set-budget") return BuildSetBudget(10.0);
  if (op == "tenant-status") return BuildTenantStatus("t1");
  if (op == "metrics") return BuildMetrics();
  if (op == "shutdown") return BuildShutdown();
  ADD_FAILURE() << "no builder for " << op;
  return "";
}

class ServeUnknownKeyTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    graphs_.Put("g", kgacc::testing::MakeServePopulationDataset(1));
    manager_.AttachScheduler(&scheduler_);
    ASSERT_TRUE(IsOk(manager_.HandleLine(BuildStartCampaign("g", "twcs"))));
    ASSERT_TRUE(IsOk(manager_.HandleLine(
        BuildStartTenantCampaign("g", "twcs", "", "", 1.0, 0.0, "t1"))));
  }

  GraphStore graphs_;
  CampaignScheduler scheduler_{&graphs_, CampaignScheduler::Options{}};
  SessionManager manager_{&graphs_};
};

TEST_P(ServeUnknownKeyTest, BuiltRequestPassesAndAnExtraKeyIsNamed) {
  const std::string request = BuiltRequest(GetParam());
  const SessionManager::Response built = manager_.HandleLine(request);
  ASSERT_FALSE(built.lines.empty());
  // A builder's request may still fail on its merits (no such graph, a
  // suspended session), never on its keys.
  EXPECT_EQ(built.lines[0].find("unknown key"), std::string::npos)
      << request << " -> " << built.lines[0];

  std::string extra = request;
  extra.insert(extra.rfind('}'), ", \"bogus\": 1");
  const SessionManager::Response rejected = manager_.HandleLine(extra);
  ASSERT_EQ(rejected.lines.size(), 1u);
  EXPECT_FALSE(IsOk(rejected)) << extra;
  EXPECT_FALSE(rejected.shutdown);
  EXPECT_NE(rejected.lines[0].find("unknown key 'bogus'"), std::string::npos)
      << extra << " -> " << rejected.lines[0];
}

INSTANTIATE_TEST_SUITE_P(
    EveryOp, ServeUnknownKeyTest,
    ::testing::Values("load-graph", "start-campaign", "start-tenant", "step",
                      "query-estimate", "stream-trace", "suspend", "resume",
                      "resume-state", "stop", "set-budget", "tenant-status",
                      "metrics", "shutdown"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ServeProtocolTest, KgEvalOnASizesOnlyPopulationFailsToStart) {
  // kgeval needs addressable triples; the design registry refuses it on a
  // sizes-only population, and both serve entry points report exactly that
  // instead of admitting a session that can never step.
  GraphStore graphs;
  const std::shared_ptr<const Dataset> population =
      kgacc::testing::MakeServePopulationDataset(1);
  graphs.Put("g", population);
  SimulatedAnnotator annotator(population->oracle.get(), CostModel{});
  const Status refused =
      DesignRegistry::Global()
          .MakeCampaign("kgeval", population->View(), &annotator,
                        EvaluationOptions{})
          .status();
  ASSERT_FALSE(refused.ok());

  SessionManager manager(&graphs);
  CampaignScheduler scheduler(&graphs, CampaignScheduler::Options{});
  manager.AttachScheduler(&scheduler);
  const SessionManager::Response started =
      manager.HandleLine(BuildStartCampaign("g", "kgeval"));
  ASSERT_EQ(started.lines.size(), 1u);
  EXPECT_FALSE(IsOk(started));
  EXPECT_NE(started.lines[0].find(JsonEscape(refused.message())),
            std::string::npos)
      << started.lines[0];
  EXPECT_FALSE(IsOk(manager.HandleLine(BuildQueryEstimate("s1"))));

  const Result<std::string> admitted = scheduler.AddTenant(
      TenantConfig{.id = "k", .graph = "g", .design = "kgeval"});
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().message(), refused.message());
  EXPECT_EQ(scheduler.NumTenants(), 0u);
}

}  // namespace
}  // namespace kgacc::serve
