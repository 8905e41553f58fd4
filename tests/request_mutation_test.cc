// A seeded mutation corpus for the daemon's request lines: valid
// start-campaign, step, query-estimate, stream-trace, suspend, resume and
// stop requests on a preloaded nell graph, cut short, with bytes dropped or
// duplicated, members swapped or renamed, and numbers replaced by hostile
// values or by strings. No request may abort, throw or hang: each gets a
// response whose first line is JSON with a boolean "ok", and the same
// manager then serves a valid campaign to completion.

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "serve/graph_store.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/json.h"
#include "util/rng.h"

namespace kgacc::serve {
namespace {

constexpr int kMutations = 2000;

/// Sessions are restarted this often, so a mutated `stop` or `suspend` that
/// is accepted leaves later session requests something to act on.
constexpr int kSessionEvery = 25;

constexpr const char* kOptions =
    R"({"moe_target": 0.05, "seed": 7, "batch_units": 10})";
constexpr const char* kAnnotator = R"({"noise_rate": 0.1})";

/// What a mutated number becomes: out-of-range, unparsable or mistyped.
const char* const kHostileValues[] = {"-1",    "18446744073709551616",
                                      "nan",   "1e308",
                                      "\"7\"", "\"x\""};

/// Names a member may be renamed to: the top-level keys of every op, and
/// one that no op knows.
const char* const kKeys[] = {"op",      "graph",   "design",
                             "options", "annotator", "tenant",
                             "id",      "session", "rounds",
                             "from",    "campaign_state", "bogus"};

/// One scalar member `"key": value` of a request line: the member's text is
/// [begin, end), its value starts at `value`.
struct Member {
  size_t begin = 0;
  size_t value = 0;
  size_t end = 0;
  bool number = false;
};

std::vector<Member> ScalarMembers(const std::string& line) {
  static const std::regex kMember(
      R"re("[A-Za-z_]+"\s*:\s*(-?[0-9][-+.eE0-9]*|"[^"]*"|true|false))re");
  std::vector<Member> members;
  for (auto it = std::sregex_iterator(line.begin(), line.end(), kMember);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& match = *it;
    const char first = match[1].str()[0];
    members.push_back(
        {.begin = static_cast<size_t>(match.position(0)),
         .value = static_cast<size_t>(match.position(1)),
         .end = static_cast<size_t>(match.position(0) + match.length(0)),
         .number = first == '-' || (first >= '0' && first <= '9')});
  }
  return members;
}

/// One to three seeded mutations of `line`.
std::string Mutate(std::string line, Rng& rng) {
  const uint64_t rounds = 1 + rng.UniformIndex(3);
  for (uint64_t r = 0; r < rounds && !line.empty(); ++r) {
    const size_t at = rng.UniformIndex(line.size());
    const std::vector<Member> members = ScalarMembers(line);
    switch (rng.UniformIndex(6)) {
      case 0:  // truncation at any byte
        return line.substr(0, rng.UniformIndex(line.size() + 1));
      case 1:  // a dropped byte
        line.erase(at, 1);
        break;
      case 2:  // a duplicated byte
        line.insert(at, 1, line[at]);
        break;
      case 3: {  // two members swapped
        if (members.size() < 2) break;
        size_t a = rng.UniformIndex(members.size());
        size_t b = rng.UniformIndex(members.size());
        if (a == b) break;
        if (a > b) std::swap(a, b);
        const Member& first = members[a];
        const Member& second = members[b];
        line = line.substr(0, first.begin) +
               line.substr(second.begin, second.end - second.begin) +
               line.substr(first.end, second.begin - first.end) +
               line.substr(first.begin, first.end - first.begin) +
               line.substr(second.end);
        break;
      }
      case 4: {  // a member renamed
        if (members.empty()) break;
        const Member& member = members[rng.UniformIndex(members.size())];
        const size_t key_end = line.find('"', member.begin + 1) + 1;
        line.replace(member.begin, key_end - member.begin,
                     std::string("\"") +
                         kKeys[rng.UniformIndex(std::size(kKeys))] + "\"");
        break;
      }
      default: {  // a number replaced by a hostile value
        std::vector<Member> numbers;
        for (const Member& member : members) {
          if (member.number) numbers.push_back(member);
        }
        if (numbers.empty()) break;
        const Member& member = numbers[rng.UniformIndex(numbers.size())];
        line.replace(
            member.value, member.end - member.value,
            kHostileValues[rng.UniformIndex(std::size(kHostileValues))]);
      }
    }
  }
  return line;
}

/// Sends `line`; the response's first line must be JSON with a boolean
/// "ok". Returns that value (false when the check failed).
bool Send(SessionManager& manager, const std::string& line) {
  SessionManager::Response response;
  EXPECT_NO_THROW(response = manager.HandleLine(line)) << line;
  EXPECT_FALSE(response.shutdown) << line;
  if (response.lines.empty()) {
    ADD_FAILURE() << "no response to " << line;
    return false;
  }
  const Result<JsonValue> first = JsonValue::Parse(response.lines[0]);
  const Result<bool> ok = first.ok() ? first->GetBool("ok")
                                     : Result<bool>(first.status());
  EXPECT_TRUE(ok.ok()) << line << " -> " << response.lines[0];
  return ok.ok() && *ok;
}

/// Starts the valid campaign and steps it twice; returns its session id.
std::string StartLiveSession(SessionManager& manager) {
  const SessionManager::Response started = manager.HandleLine(
      BuildStartCampaign("nell", "twcs", kOptions, kAnnotator));
  EXPECT_EQ(started.lines.size(), 1u);
  const std::string line = started.lines.empty() ? "" : started.lines[0];
  const Result<JsonValue> json = JsonValue::Parse(line);
  const Result<std::string> id = json.ok() ? json->GetString("session")
                                           : Result<std::string>(json.status());
  EXPECT_TRUE(id.ok() && !id->empty()) << line;
  EXPECT_TRUE(Send(manager, BuildStep(id.ValueOr(""), 2)));
  return id.ValueOr("");
}

TEST(RequestMutationTest, EveryMutatedRequestGetsAnOkOrAnError) {
  GraphStore graphs;
  ASSERT_TRUE(graphs.Load("nell", 42).ok());
  SessionManager manager(&graphs);

  CampaignSessionState suspended;
  suspended.design = "twcs";
  suspended.graph = "nell";
  suspended.rounds_completed = 2;
  suspended.options.seed = 7;
  suspended.annotator.noise_rate = 0.1;
  const std::string campaign_state = CampaignStateJson(suspended);

  Rng rng(0x5e7e);
  std::string live;
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    if (i % kSessionEvery == 0) live = StartLiveSession(manager);
    const std::string valid[] = {
        BuildStartCampaign("nell", "twcs", kOptions, kAnnotator),
        BuildStep(live, 2),
        BuildQueryEstimate(live),
        BuildStreamTrace(live, 0),
        BuildSuspend(live),
        BuildResumeSession(live),
        BuildResumeState(campaign_state),
        BuildStop(live),
    };
    const std::string line =
        Mutate(valid[rng.UniformIndex(std::size(valid))], rng);
    if (Send(manager, line)) ++accepted;
  }
  // Swapped members and some duplicated bytes leave a request valid; most
  // mutations are refused.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations / 2);

  const std::string session = StartLiveSession(manager);
  const SessionManager::Response finished =
      manager.HandleLine(BuildStep(session, 0));
  ASSERT_EQ(finished.lines.size(), 1u);
  EXPECT_NE(finished.lines[0].find("\"state\": \"completed\""),
            std::string::npos)
      << finished.lines[0];
}

}  // namespace
}  // namespace kgacc::serve
