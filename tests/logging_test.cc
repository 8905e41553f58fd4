// Severity-filtered logging: the minimum level gates emission, messages
// carry a [LEVEL <t>s file:line] prefix on the shared monotonic clock, and
// KGACC_CHECK streams context. (The KGACC_LOG env override is parsed once
// per process on first use; SetMinLogLevel always wins afterwards, so these
// tests drive the level explicitly.)

#include "util/logging.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace kgacc {
namespace {

/// Captures std::cerr for the lifetime of one test scope.
class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  std::string str() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { SetMinLogLevel(LogLevel::kInfo); }
};

TEST_F(LoggingTest, MinLevelRoundTrips) {
  SetMinLogLevel(LogLevel::kWarning);
  EXPECT_EQ(GetMinLogLevel(), LogLevel::kWarning);
  SetMinLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetMinLogLevel(), LogLevel::kDebug);
}

TEST_F(LoggingTest, MessagesBelowMinLevelAreSuppressed) {
  SetMinLogLevel(LogLevel::kError);
  CerrCapture capture;
  KGACC_LOG(Debug) << "quiet-debug";
  KGACC_LOG(Info) << "quiet-info";
  KGACC_LOG(Warning) << "quiet-warning";
  KGACC_LOG(Error) << "loud-error";
  const std::string out = capture.str();
  EXPECT_EQ(out.find("quiet"), std::string::npos) << out;
  EXPECT_NE(out.find("loud-error"), std::string::npos) << out;
}

TEST_F(LoggingTest, PrefixCarriesLevelTimestampAndLocation) {
  SetMinLogLevel(LogLevel::kDebug);
  CerrCapture capture;
  KGACC_LOG(Warning) << "prefixed";
  const std::string out = capture.str();
  EXPECT_EQ(out.find("[WARN "), 0u) << out;
  EXPECT_NE(out.find("logging_test.cc:"), std::string::npos) << out;
  EXPECT_NE(out.find("] prefixed"), std::string::npos) << out;
}

TEST_F(LoggingTest, DebugEmittedOnlyWhenEnabled) {
  SetMinLogLevel(LogLevel::kInfo);
  {
    CerrCapture capture;
    KGACC_LOG(Debug) << "hidden";
    EXPECT_EQ(capture.str(), "");
  }
  SetMinLogLevel(LogLevel::kDebug);
  {
    CerrCapture capture;
    KGACC_LOG(Debug) << "visible";
    EXPECT_NE(capture.str().find("visible"), std::string::npos);
  }
}

TEST_F(LoggingTest, PassingCheckEmitsNothing) {
  CerrCapture capture;
  KGACC_CHECK(1 + 1 == 2) << "never evaluated";
  EXPECT_EQ(capture.str(), "");
}

TEST_F(LoggingTest, FirstMessageTimestampStartsAtZero) {
  // The process's first message sets the log epoch, so its timestamp must
  // read 0, not an underflowed clock difference. The "threadsafe" style
  // re-executes the binary for this test alone, so the death test's
  // message is its process's first whatever ran before it here.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH({ KGACC_LOG(Fatal) << "first message"; }, "^\\[FATAL 0\\.");
}

TEST_F(LoggingTest, FailingCheckAborts) {
  SetMinLogLevel(LogLevel::kFatal);  // even max filtering cannot mute Fatal.
  EXPECT_DEATH({ KGACC_CHECK(false) << "invariant broken"; },
               "Check failed: false invariant broken");
}

}  // namespace
}  // namespace kgacc
