// End-to-end kgacc-serve-v1 over real TCP: ServeServer + ServeClient on a
// loopback ephemeral port, covering the full op set and the suspend/resume
// byte-compare that CI's serve-smoke job replays against the daemon binary.

#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "serve/graph_store.h"
#include "serve/protocol.h"
#include "serve/serve_client.h"
#include "serve_test_util.h"

namespace kgacc::serve {
namespace {

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graphs_.Put("g", kgacc::testing::MakeServePopulationDataset(3));
    manager_ = std::make_unique<SessionManager>(&graphs_);
    server_ = std::make_unique<ServeServer>(manager_.get(), 0);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
    ASSERT_TRUE(client_.Connect(server_->port()).ok());
  }

  void TearDown() override {
    server_->Shutdown();
    server_->Wait();
  }

  /// One call; asserts transport success and returns the parsed response.
  JsonValue Call(const std::string& request) {
    Result<std::string> response = client_.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return JsonValue();
    Result<JsonValue> parsed = JsonValue::Parse(*response);
    EXPECT_TRUE(parsed.ok()) << *response;
    return parsed.ok() ? *parsed : JsonValue();
  }

  static bool Ok(const JsonValue& response) {
    const JsonValue* ok = response.Find("ok");
    return ok != nullptr && ok->is_bool() && ok->AsBool();
  }

  static std::string Str(const JsonValue& response, const std::string& key) {
    const JsonValue* value = response.Find(key);
    return value != nullptr && value->is_string() ? value->AsString() : "";
  }

  /// Round lines of a stream-trace response (header and end marker
  /// stripped).
  std::vector<std::string> StreamRounds(const std::string& session) {
    Result<std::vector<std::string>> lines =
        client_.CallMulti(BuildStreamTrace(session), StreamTraceExtraLines);
    EXPECT_TRUE(lines.ok()) << lines.status().ToString();
    if (!lines.ok()) return {};
    EXPECT_GE(lines->size(), 2u);
    EXPECT_NE(lines->back().find("\"end\": true"), std::string::npos);
    return {lines->begin() + 1, lines->end() - 1};
  }

  GraphStore graphs_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeServer> server_;
  ServeClient client_;
};

TEST_F(ServeServerTest, LoadGraphAndBadRequests) {
  EXPECT_TRUE(Ok(Call(BuildLoadGraph("nell", 42))));
  const JsonValue missing = Call(BuildStartCampaign("nope", "twcs"));
  EXPECT_FALSE(Ok(missing));
  EXPECT_NE(Str(missing, "error").find("nope"), std::string::npos);
  EXPECT_FALSE(Ok(Call("this is not json")));
}

TEST_F(ServeServerTest, CampaignLifecycleOverTcp) {
  const JsonValue started = Call(
      BuildStartCampaign("g", "twcs", R"({"moe_target": 0.03, "seed": 9})"));
  ASSERT_TRUE(Ok(started));
  const std::string session = Str(started, "session");
  ASSERT_FALSE(session.empty());

  const JsonValue stepped = Call(BuildStep(session, 3));
  ASSERT_TRUE(Ok(stepped));
  EXPECT_EQ(stepped.Find("rounds")->AsNumber(), 3.0);

  const JsonValue estimate = Call(BuildQueryEstimate(session));
  ASSERT_TRUE(Ok(estimate));
  EXPECT_NE(estimate.Find("estimate"), nullptr);
  EXPECT_NE(estimate.Find("moe"), nullptr);
  EXPECT_NE(estimate.Find("cost_seconds"), nullptr);

  EXPECT_EQ(StreamRounds(session).size(), 3u);

  // Run to the design's own stopping decision.
  const JsonValue done = Call(BuildStep(session, 0));
  ASSERT_TRUE(Ok(done));
  EXPECT_EQ(Str(done, "state"), "completed");

  EXPECT_TRUE(Ok(Call(BuildStop(session))));
}

TEST_F(ServeServerTest, SuspendResumeStreamsByteIdenticalTraces) {
  const std::string campaign_options = R"({"moe_target": 0.03, "seed": 77})";

  // Reference: the same campaign uninterrupted.
  const JsonValue reference =
      Call(BuildStartCampaign("g", "twcs", campaign_options));
  ASSERT_TRUE(Ok(reference));
  const std::string ref_session = Str(reference, "session");
  ASSERT_TRUE(Ok(Call(BuildStep(ref_session, 0))));
  const std::vector<std::string> expected = StreamRounds(ref_session);
  ASSERT_GT(expected.size(), 4u);

  // Interrupted: step 2, suspend, resume from the persisted state, finish.
  const JsonValue started =
      Call(BuildStartCampaign("g", "twcs", campaign_options));
  ASSERT_TRUE(Ok(started));
  const std::string session = Str(started, "session");
  ASSERT_TRUE(Ok(Call(BuildStep(session, 2))));
  const JsonValue suspended = Call(BuildSuspend(session));
  ASSERT_TRUE(Ok(suspended));
  const JsonValue* object = suspended.Find("campaign_state");
  ASSERT_NE(object, nullptr);
  CampaignSessionState state;
  ASSERT_TRUE(ParseCampaignState(*object, &state).ok());
  EXPECT_EQ(state.rounds_completed, 2u);

  const JsonValue resumed = Call(BuildResumeState(CampaignStateJson(state)));
  ASSERT_TRUE(Ok(resumed));
  const std::string resumed_session = Str(resumed, "session");
  ASSERT_NE(resumed_session, session);  // a fresh session carries it on.
  ASSERT_TRUE(Ok(Call(BuildStep(resumed_session, 0))));

  // The streamed rounds — replayed and new alike — byte-compare equal.
  EXPECT_EQ(StreamRounds(resumed_session), expected);
}

TEST_F(ServeServerTest, ResumeBySessionIdContinuesInPlace) {
  const JsonValue started =
      Call(BuildStartCampaign("g", "srs",
                              R"({"moe_target": 0.02, "batch_units": 10})",
                              R"({"noise_rate": 0.1})"));
  ASSERT_TRUE(Ok(started));
  const std::string session = Str(started, "session");
  ASSERT_TRUE(Ok(Call(BuildStep(session, 2))));
  ASSERT_TRUE(Ok(Call(BuildSuspend(session))));
  // Suspended sessions refuse to step...
  EXPECT_FALSE(Ok(Call(BuildStep(session, 1))));
  // ...until resumed under the same id.
  const JsonValue resumed = Call(BuildResumeSession(session));
  ASSERT_TRUE(Ok(resumed));
  EXPECT_EQ(Str(resumed, "session"), session);
  const JsonValue stepped = Call(BuildStep(session, 2));
  ASSERT_TRUE(Ok(stepped));
  EXPECT_EQ(stepped.Find("rounds")->AsNumber(), 4.0);
}

TEST_F(ServeServerTest, MetricsExposeServeHistograms) {
  ASSERT_TRUE(Ok(Call(BuildStartCampaign("g", "twcs"))));
  Result<std::string> metrics = client_.Call(BuildMetrics());
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("kgacc-metrics-v1"), std::string::npos);
  EXPECT_NE(metrics->find("serve.request.start_campaign_seconds"),
            std::string::npos);
  EXPECT_NE(metrics->find("serve.requests"), std::string::npos);
}

TEST_F(ServeServerTest, ShutdownOpStopsTheServer) {
  const JsonValue response = Call(BuildShutdown());
  EXPECT_TRUE(Ok(response));
  server_->Wait();  // returns because the op shut the server down.
}

TEST_F(ServeServerTest, SecondClientSharesTheSessionTable) {
  const JsonValue started = Call(BuildStartCampaign("g", "twcs"));
  ASSERT_TRUE(Ok(started));
  const std::string session = Str(started, "session");
  ASSERT_TRUE(Ok(Call(BuildStep(session, 2))));

  ServeClient other;
  ASSERT_TRUE(other.Connect(server_->port()).ok());
  Result<std::string> response = other.Call(BuildQueryEstimate(session));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("\"rounds\": 2"), std::string::npos) << *response;
}

/// Open fds of this process.
size_t OpenFdCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator()));
}

int NewSocket() { return ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0); }

/// Connects the fresh socket `fd` to the loopback `port`.
bool ConnectTo(int fd, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool SendAll(int fd, const std::string& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Whether `fd` has something to read within `ms` milliseconds.
bool Readable(int fd, int ms) {
  pollfd poll_fd{.fd = fd, .events = POLLIN, .revents = 0};
  return ::poll(&poll_fd, 1, ms) == 1;
}

/// Waits up to `seconds` for `done`, checking every few milliseconds.
bool WaitFor(const std::function<bool()>& done, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST_F(ServeServerTest, ClosedConnectionsReleaseTheirFds) {
  const JsonValue started = Call(BuildStartCampaign("g", "twcs"));
  ASSERT_TRUE(Ok(started));
  const std::string request = BuildQueryEstimate(Str(started, "session"));
  const size_t before = OpenFdCount();
  for (int i = 0; i < 100; ++i) {
    ServeClient client;
    ASSERT_TRUE(client.Connect(server_->port()).ok());
    Result<std::string> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_NE(response->find("\"ok\": true"), std::string::npos);
  }
  // Handlers close their fd when the client hangs up; the last few may
  // still be finishing.
  EXPECT_TRUE(WaitFor([&] { return OpenFdCount() <= before + 3; }, 10.0))
      << before << " fds before, " << OpenFdCount() << " after";
}

TEST_F(ServeServerTest, KeepsAcceptingAfterRunningOutOfFds) {
  const std::string request = BuildMetrics() + "\n";
  // Both clients' sockets exist before the fds run out; until the limit is
  // restored the test makes only plain syscalls (sanitizer runtimes need
  // fds of their own).
  const int first = NewSocket();
  const int second = NewSocket();
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(std::max(first, second)) + 8;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) {
    fillers.push_back(fd);
  }
  const int open_errno = errno;

  // A blocked accept() holds the fd it will return, so one client may still
  // be accepted; the acceptor's next accept() finds no fd left and the
  // other client waits in the backlog.
  const bool sent = ConnectTo(first, server_->port()) &&
                    SendAll(first, request) &&
                    ConnectTo(second, server_->port()) &&
                    SendAll(second, request);
  const bool first_early = sent && Readable(first, 300);
  const bool second_early = sent && Readable(second, 0);

  for (const int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(open_errno, EMFILE);
  ASSERT_TRUE(sent);
  EXPECT_FALSE(first_early && second_early) << "accept() never ran out";

  // With fds free again, both backlogged clients and a fresh one are served.
  const int fresh = NewSocket();
  ASSERT_TRUE(ConnectTo(fresh, server_->port()) && SendAll(fresh, request));
  for (const int fd : {first, second, fresh}) {
    char reply[64] = {};
    EXPECT_TRUE(Readable(fd, 10000) &&
                ::recv(fd, reply, sizeof(reply) - 1, 0) > 0)
        << "client " << fd << " was never served";
    EXPECT_EQ(std::string(reply).rfind("{\"ok\": true", 0), 0u) << reply;
    ::close(fd);
  }
}

TEST_F(ServeServerTest, ServerThatFailedToStartDestructs) {
  // The port is taken by the fixture's server: Start fails, and the
  // destructor must return instead of waiting for an acceptor that never ran.
  SessionManager manager(&graphs_);
  auto taken = std::make_unique<ServeServer>(&manager, server_->port());
  EXPECT_FALSE(taken->Start().ok());
  taken.reset();
  Result<std::string> response = client_.Call(BuildMetrics());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("kgacc-metrics-v1"), std::string::npos);
}

TEST_F(ServeServerTest, OverlongRequestLineIsRejected) {
  const int fd = NewSocket();
  ASSERT_TRUE(ConnectTo(fd, server_->port()));
  const timeval timeout{.tv_sec = 10, .tv_usec = 0};  // fail, never hang.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  // 2 MiB with no newline, sent from a second thread: the server stops
  // reading at the cap, answers, and hangs up mid-send.
  std::thread sender([fd] {
    const std::string line(2 << 20, 'x');
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
  });
  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    reply.append(chunk, static_cast<size_t>(n));
  }
  sender.join();
  ::close(fd);
  Result<JsonValue> parsed =
      JsonValue::Parse(reply.substr(0, reply.find('\n')));
  ASSERT_TRUE(parsed.ok()) << reply;
  EXPECT_FALSE(Ok(*parsed));
  EXPECT_NE(Str(*parsed, "error").find(
                std::to_string(ServeServer::kMaxRequestLineBytes)),
            std::string::npos)
      << reply;

  // The daemon keeps serving: a new connection gets answers.
  ServeClient fresh;
  ASSERT_TRUE(fresh.Connect(server_->port()).ok());
  Result<std::string> response = fresh.Call(BuildMetrics());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("kgacc-metrics-v1"), std::string::npos);
}

}  // namespace
}  // namespace kgacc::serve
