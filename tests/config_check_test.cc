// The one range check of a campaign's configuration: CheckEvaluationOptions
// and CheckAnnotatorSpec state every rule, and every surface that takes a
// configuration from outside — start-campaign, a tenant's start-campaign and
// a resume's campaign_state — refuses a hostile one with a response naming
// the field, while the daemon goes on serving.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>

#include "core/evaluation.h"
#include "labels/annotator_spec.h"
#include "serve/graph_store.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/session_manager.h"
#include "serve_test_util.h"
#include "stats/stratification.h"
#include "util/string_util.h"

namespace kgacc {
namespace {

/// EXPECTs that `status` is an InvalidArgument that names `field`.
void ExpectRefusal(const Status& status, const std::string& field) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << field << ": " << status.ToString();
  EXPECT_NE(status.message().find("'" + field + "'"), std::string::npos)
      << status.message();
}

TEST(CheckEvaluationOptionsTest, DefaultsAndTheBoundsThemselvesPass) {
  EXPECT_TRUE(CheckEvaluationOptions(EvaluationOptions{}).ok());
  EvaluationOptions edges;
  edges.batch_units = kMaxRoundUnits;
  edges.min_units = kMaxRoundUnits;
  edges.min_stratum_units = kMaxRoundUnits;
  edges.pilot_size = kMaxRoundUnits;
  edges.num_strata = kMaxStrata;
  edges.max_cost_seconds = 0.0;
  edges.moe_target = 1e-9;
  edges.confidence = 0.999;
  EXPECT_TRUE(CheckEvaluationOptions(edges).ok());
}

TEST(CheckEvaluationOptionsTest, EachRuleNamesItsField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double moe : {0.0, -0.1, nan, inf}) {
    EvaluationOptions options;
    options.moe_target = moe;
    ExpectRefusal(CheckEvaluationOptions(options), "moe_target");
  }
  for (const double confidence : {0.0, 1.0, 1.5, nan}) {
    EvaluationOptions options;
    options.confidence = confidence;
    ExpectRefusal(CheckEvaluationOptions(options), "confidence");
  }
  for (const double budget : {-1.0, nan, inf}) {
    EvaluationOptions options;
    options.max_cost_seconds = budget;
    ExpectRefusal(CheckEvaluationOptions(options), "max_cost_seconds");
  }
  EvaluationOptions no_batch;
  no_batch.batch_units = 0;
  ExpectRefusal(CheckEvaluationOptions(no_batch), "batch_units");
  for (const uint64_t count : {kMaxRoundUnits + 1, uint64_t{1} << 53}) {
    EvaluationOptions batch, min_units, min_stratum_units, pilot;
    batch.batch_units = count;
    min_units.min_units = count;
    min_stratum_units.min_stratum_units = count;
    pilot.pilot_size = count;
    ExpectRefusal(CheckEvaluationOptions(batch), "batch_units");
    ExpectRefusal(CheckEvaluationOptions(min_units), "min_units");
    ExpectRefusal(CheckEvaluationOptions(min_stratum_units),
                  "min_stratum_units");
    ExpectRefusal(CheckEvaluationOptions(pilot), "pilot_size");
  }
}

TEST(CheckEvaluationOptionsTest, StrataCountNamesTheLimit) {
  EvaluationOptions options;
  for (const uint64_t ok : {uint64_t{0}, uint64_t{1}, uint64_t{kMaxStrata}}) {
    options.num_strata = ok;
    EXPECT_TRUE(CheckEvaluationOptions(options).ok()) << ok;
  }
  // 2^32 + 2 would truncate to 2 as an int.
  for (const uint64_t over :
       {uint64_t{kMaxStrata} + 1, (uint64_t{1} << 32) + 2}) {
    options.num_strata = over;
    const Status status = CheckEvaluationOptions(options);
    ExpectRefusal(status, "num_strata");
    EXPECT_NE(status.message().find("256"), std::string::npos)
        << status.message();
  }
}

// The caps on threads, pool members and in-flight slots are tested
// on the check alone: an annotator built from the refused values would
// start that many threads or allocate that much.
TEST(CheckAnnotatorSpecTest, CapsWhatAnAnnotatorAllocates) {
  EXPECT_TRUE(CheckAnnotatorSpec(AnnotatorSpec{}).ok());
  EXPECT_TRUE(CheckAnnotatorSpec({.annotators = kMaxAnnotators,
                                  .annotation_threads = kMaxAnnotationThreads,
                                  .max_concurrent = kMaxConcurrent})
                  .ok());
  for (const uint64_t pool : {uint64_t{0}, uint64_t{2}, uint64_t{98},
                              kMaxAnnotators + 2, uint64_t{1} << 53}) {
    ExpectRefusal(CheckAnnotatorSpec({.annotators = pool}), "annotators");
  }
  ExpectRefusal(
      CheckAnnotatorSpec({.annotation_threads = kMaxAnnotationThreads + 1}),
      "annotation_threads");
  for (const uint64_t window : {uint64_t{0}, kMaxConcurrent + 1}) {
    ExpectRefusal(CheckAnnotatorSpec({.async = true, .max_concurrent = window}),
                  "max_concurrent");
  }
}

TEST(CheckAnnotatorSpecTest, RatesAndCostsNameTheirField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double noise : {-0.1, 1.5, nan}) {
    ExpectRefusal(CheckAnnotatorSpec({.noise_rate = noise}), "noise_rate");
  }
  for (const double seconds : {-1.0, nan, inf}) {
    ExpectRefusal(CheckAnnotatorSpec({.c1_seconds = seconds}), "c1_seconds");
    ExpectRefusal(CheckAnnotatorSpec({.c2_seconds = seconds}), "c2_seconds");
    ExpectRefusal(CheckAnnotatorSpec({.latency_ms = seconds}), "latency_ms");
  }
  // A campaign waits each first-seen triple's latency out.
  for (const double ms : {kMaxLatencyMs * 1.001, 1e9}) {
    ExpectRefusal(CheckAnnotatorSpec({.latency_ms = ms}), "latency_ms");
  }
  EXPECT_TRUE(CheckAnnotatorSpec({.noise_rate = 1.0, .c1_seconds = 0.0,
                                  .c2_seconds = 0.0,
                                  .latency_ms = kMaxLatencyMs})
                  .ok());
}

}  // namespace

namespace serve {
namespace {

/// One hostile configuration: the options and annotator objects a client
/// sends, and the field the refusal must name. Each row's design is one
/// whose first round (or set-up) allocates by the hostile count.
struct HostileRow {
  const char* name;
  const char* design;
  const char* options;
  const char* annotator;
  const char* field;
};

/// Prints a row as its name. gtest would print its bytes, five string
/// addresses that move with every build, and ctest names each case by it.
void PrintTo(const HostileRow& row, std::ostream* os) { *os << row.name; }

constexpr HostileRow kHostileRows[] = {
    {"EvenPool", "twcs", "{}", R"({"annotators": 2})", "annotators"},
    {"EmptyPool", "twcs", "{}", R"({"annotators": 0})", "annotators"},
    {"NoiseOverOne", "twcs", "{}", R"({"noise_rate": 1.5})", "noise_rate"},
    {"NegativeC1", "twcs", "{}", R"({"c1_seconds": -1})", "c1_seconds"},
    {"HugeBatch", "twcs", R"({"batch_units": 9007199254740992})", "{}",
     "batch_units"},
    {"HugeMinUnits", "ss", R"({"min_units": 9007199254740992})", "{}",
     "min_units"},
    {"HugeMinStratumUnits", "twcs+strat",
     R"({"min_stratum_units": 9007199254740992})", "{}", "min_stratum_units"},
    {"HugeAsyncWindow", "twcs", "{}",
     R"({"async": true, "max_concurrent": 9007199254740992})",
     "max_concurrent"},
    {"ZeroMoe", "twcs", R"({"moe_target": 0})", "{}", "moe_target"},
    {"CertainConfidence", "twcs", R"({"confidence": 1})", "{}", "confidence"},
    {"TooManyStrata", "twcs+strat", R"({"num_strata": 257})", "{}",
     "num_strata"},
    {"DaysOfLatency", "twcs", "{}", R"({"latency_ms": 1e9})", "latency_ms"},
};

class HostileConfigTest : public ::testing::TestWithParam<HostileRow> {
 protected:
  void SetUp() override {
    graphs_.Put("g", kgacc::testing::MakeServePopulationDataset(1));
    manager_.AttachScheduler(&scheduler_);
  }

  /// Sends `request`, which must be refused naming the row's field. A
  /// request that is admitted instead gets what a hostile client would do
  /// next: its campaign is stepped.
  void ExpectRefused(const std::string& request) {
    const SessionManager::Response response = manager_.HandleLine(request);
    ASSERT_EQ(response.lines.size(), 1u) << request;
    const std::string& line = response.lines[0];
    EXPECT_NE(line.find("\"ok\": false"), std::string::npos)
        << request << " -> " << line;
    EXPECT_NE(line.find(GetParam().field), std::string::npos)
        << request << " -> " << line;
    if (line.find("\"ok\": true") == std::string::npos) return;
    const Result<JsonValue> admitted = JsonValue::Parse(line);
    const JsonValue* session =
        admitted.ok() ? admitted->Find("session") : nullptr;
    if (session != nullptr && session->is_string()) {
      manager_.HandleLine(BuildStep(session->AsString(), 1));
    }
    scheduler_.GrantNext();
  }

  GraphStore graphs_;
  CampaignScheduler scheduler_{&graphs_, CampaignScheduler::Options{}};
  SessionManager manager_{&graphs_};
};

TEST_P(HostileConfigTest, FailsAloneThroughEveryEntryPoint) {
  const HostileRow& row = GetParam();
  ExpectRefused(BuildStartCampaign("g", row.design, row.options,
                                   row.annotator));
  ExpectRefused(BuildStartTenantCampaign("g", row.design, row.options,
                                         row.annotator, 1.0, 0.0, "hostile"));
  ExpectRefused(BuildResumeState(StrFormat(
      R"({"design": "%s", "graph": "g", "rounds": 3, "options": %s, )"
      R"("annotator": %s})",
      row.design, row.options, row.annotator)));
  EXPECT_EQ(scheduler_.NumTenants(), 0u);

  // The same manager then serves a valid campaign to completion.
  const SessionManager::Response started = manager_.HandleLine(
      BuildStartCampaign("g", "twcs", R"({"moe_target": 0.05})"));
  ASSERT_EQ(started.lines.size(), 1u);
  const Result<JsonValue> start = JsonValue::Parse(started.lines[0]);
  ASSERT_TRUE(start.ok()) << started.lines[0];
  const Result<std::string> session = start->GetString("session");
  ASSERT_TRUE(session.ok()) << started.lines[0];
  const SessionManager::Response finished =
      manager_.HandleLine(BuildStep(*session, 0));
  ASSERT_EQ(finished.lines.size(), 1u);
  EXPECT_NE(finished.lines[0].find("\"state\": \"completed\""),
            std::string::npos)
      << finished.lines[0];
}

INSTANTIATE_TEST_SUITE_P(
    Rows, HostileConfigTest, ::testing::ValuesIn(kHostileRows),
    [](const ::testing::TestParamInfo<HostileRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace serve
}  // namespace kgacc
