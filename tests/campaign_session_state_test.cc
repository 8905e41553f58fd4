// CampaignSessionState's one codec, the protocol's `campaign_state` JSON
// object: it round-trips every field bit-exactly (resume = deterministic
// replay, so a single drifted option would silently fork the campaign), and
// a resume refuses a document it cannot replay faithfully.

#include <gtest/gtest.h>

#include <string>

#include "serve/graph_store.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "serve_test_util.h"

namespace kgacc::serve {
namespace {

CampaignSessionState FullState() {
  CampaignSessionState state;
  state.design = "twcs+strat";
  state.graph = "data/my graph.tsv";  // spaces survive.
  state.rounds_completed = 17;
  state.options.moe_target = 0.0321;
  state.options.confidence = 0.99;
  state.options.min_units = 40;
  state.options.batch_units = 25;
  state.options.m = 7;
  state.options.max_cost_seconds = 1234.5;
  state.options.max_units = 9999;
  state.options.seed = 0xdeadbeef;
  state.options.min_stratum_units = 12;
  state.options.srs_ci = CiMethod::kWilson;
  state.options.num_strata = 6;
  state.options.pilot_size = 55;
  state.annotator.annotators = 5;
  state.annotator.noise_rate = 0.125;
  state.annotator.seed = 0x5eed5;
  state.annotator.annotation_threads = 8;
  state.annotator.c1_seconds = 47.5;
  state.annotator.c2_seconds = 1.0 / 3.0;  // not representable in decimal.
  state.annotator.async = true;
  state.annotator.latency_ms = 12.25;
  state.annotator.max_concurrent = 17;
  return state;
}

Result<CampaignSessionState> Reparse(const std::string& text) {
  KGACC_ASSIGN_OR_RETURN(const JsonValue json, JsonValue::Parse(text));
  CampaignSessionState state;
  KGACC_RETURN_IF_ERROR(ParseCampaignState(json, &state));
  return state;
}

/// `text` with its first occurrence of `from` replaced by `to`.
std::string Replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from << " in " << text;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// A resume through a SessionManager whose graph store holds "g": the
/// response line of `campaign_state` (the object's JSON text).
std::string ResumeLine(const std::string& campaign_state) {
  GraphStore graphs;
  graphs.Put("g", kgacc::testing::MakeServePopulationDataset(1));
  SessionManager manager(&graphs);
  const SessionManager::Response response =
      manager.HandleLine(BuildResumeState(campaign_state));
  EXPECT_EQ(response.lines.size(), 1u);
  return response.lines.empty() ? "" : response.lines[0];
}

/// A small campaign on "g" that resumes fine as it stands.
CampaignSessionState ResumableState() {
  CampaignSessionState state;
  state.design = "twcs";
  state.graph = "g";
  state.rounds_completed = 2;
  return state;
}

TEST(CampaignSessionStateTest, RoundTripsEveryField) {
  const CampaignSessionState state = FullState();
  const Result<CampaignSessionState> restored =
      Reparse(CampaignStateJson(state));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->design, state.design);
  EXPECT_EQ(restored->graph, state.graph);
  EXPECT_EQ(restored->rounds_completed, state.rounds_completed);
  EXPECT_EQ(restored->options.moe_target, state.options.moe_target);
  EXPECT_EQ(restored->options.confidence, state.options.confidence);
  EXPECT_EQ(restored->options.min_units, state.options.min_units);
  EXPECT_EQ(restored->options.batch_units, state.options.batch_units);
  EXPECT_EQ(restored->options.m, state.options.m);
  EXPECT_EQ(restored->options.max_cost_seconds,
            state.options.max_cost_seconds);
  EXPECT_EQ(restored->options.max_units, state.options.max_units);
  EXPECT_EQ(restored->options.seed, state.options.seed);
  EXPECT_EQ(restored->options.min_stratum_units,
            state.options.min_stratum_units);
  EXPECT_EQ(restored->options.srs_ci, state.options.srs_ci);
  EXPECT_EQ(restored->options.num_strata, state.options.num_strata);
  EXPECT_EQ(restored->options.pilot_size, state.options.pilot_size);
  EXPECT_EQ(restored->annotator.annotators, state.annotator.annotators);
  EXPECT_EQ(restored->annotator.noise_rate, state.annotator.noise_rate);
  EXPECT_EQ(restored->annotator.seed, state.annotator.seed);
  EXPECT_EQ(restored->annotator.annotation_threads,
            state.annotator.annotation_threads);
  EXPECT_EQ(restored->annotator.c1_seconds, state.annotator.c1_seconds);
  EXPECT_EQ(restored->annotator.c2_seconds, state.annotator.c2_seconds);
  EXPECT_EQ(restored->annotator.async, state.annotator.async);
  EXPECT_EQ(restored->annotator.latency_ms, state.annotator.latency_ms);
  EXPECT_EQ(restored->annotator.max_concurrent, state.annotator.max_concurrent);

  // The borrowed observer pointers never travel.
  EXPECT_EQ(restored->options.telemetry, nullptr);
  EXPECT_EQ(restored->options.control, nullptr);
}

TEST(CampaignSessionStateTest, SaveRestoreSaveIsIdentity) {
  const std::string first = CampaignStateJson(FullState());
  const Result<CampaignSessionState> restored = Reparse(first);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(CampaignStateJson(*restored), first);
}

TEST(CampaignSessionStateTest, RejectsWrongHeader) {
  // Documents that are not a campaign_state: another format's object, a
  // bare value, and an object without the campaign's design.
  EXPECT_FALSE(
      Reparse(R"({"schema": "kgacc-trace-v1", "campaigns": []})").ok());
  EXPECT_FALSE(Reparse("[1, 2]").ok());
  EXPECT_FALSE(Reparse(R"({"graph": "g", "rounds": 3})").ok());
}

TEST(CampaignSessionStateTest, RejectsTruncatedDocument) {
  const std::string full = CampaignStateJson(FullState());
  EXPECT_FALSE(Reparse(full.substr(0, full.size() / 2)).ok());
}

TEST(CampaignSessionStateTest, RejectsOutOfRangeValues) {
  // The codec reads types; the range rules are CheckAnnotatorSpec's, and a
  // resume applies them before it replays anything.
  CampaignSessionState state = ResumableState();
  state.annotator.noise_rate = 1.5;  // a probability.
  const std::string refused = ResumeLine(CampaignStateJson(state));
  EXPECT_NE(refused.find("\"ok\": false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("noise_rate"), std::string::npos) << refused;

  const std::string resumed = ResumeLine(CampaignStateJson(ResumableState()));
  EXPECT_NE(resumed.find("\"ok\": true"), std::string::npos) << resumed;
  EXPECT_NE(resumed.find("\"rounds\": 2"), std::string::npos) << resumed;
}

TEST(CampaignSessionStateTest, LegacyTextBlobIsRefusedNamingItsFormat) {
  // What suspend returned before campaign_state became a JSON object: a
  // line-based text blob, carried as a JSON string. It is refused, with an
  // error that names the old format, instead of being half-read.
  const std::string blob =
      "kgacc-campaign-session v1\ndesign twcs\ngraph g\nrounds 2\nend\n";
  const std::string request_state = "\"" + JsonEscape(blob) + "\"";
  const Result<CampaignSessionState> parsed = Reparse(request_state);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("kgacc-campaign-session v1"),
            std::string::npos)
      << parsed.status().message();

  const std::string refused = ResumeLine(request_state);
  EXPECT_NE(refused.find("\"ok\": false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("kgacc-campaign-session v1"), std::string::npos)
      << refused;
}

TEST(CampaignSessionStateTest, RejectsUnknownTrailingRecord) {
  // A member the codec never writes is refused wherever it appears: at the
  // top level, in the options and in the annotator.
  const std::string full = CampaignStateJson(FullState());
  ASSERT_TRUE(Reparse(full).ok());
  EXPECT_FALSE(
      Reparse(Replaced(full, "\"rounds\"", "\"turbo_mode\": 1, \"rounds\""))
          .ok());
  EXPECT_FALSE(Reparse(Replaced(full, "\"moe_target\"",
                                "\"turbo_mode\": 1, \"moe_target\""))
                   .ok());
  EXPECT_FALSE(Reparse(Replaced(full, "\"annotators\"",
                                "\"turbo_mode\": 1, \"annotators\""))
                   .ok());
}

TEST(CampaignSessionStateTest, RejectsOutOfRangeMaxConcurrent) {
  CampaignSessionState state = ResumableState();
  state.annotator.max_concurrent = 0;
  const std::string refused = ResumeLine(CampaignStateJson(state));
  EXPECT_NE(refused.find("\"ok\": false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("max_concurrent"), std::string::npos) << refused;
}

TEST(CampaignSessionStateTest, RejectsUnknownSrsCi) {
  const std::string full = CampaignStateJson(FullState());
  EXPECT_FALSE(
      Reparse(Replaced(full, "\"wilson\"", "\"jeffreys\"")).ok());
}

}  // namespace
}  // namespace kgacc::serve
