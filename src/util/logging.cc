#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>

#include "util/timer.h"

namespace kgacc {

namespace {

/// Sentinel for "not yet initialized from the environment".
constexpr int kLevelUnset = -1;

std::atomic<int> g_min_level{kLevelUnset};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

bool EqualsIgnoreCase(const char* a, const char* b) {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    if (std::tolower(static_cast<unsigned char>(*a)) !=
        std::tolower(static_cast<unsigned char>(*b))) {
      return false;
    }
  }
  return *a == '\0' && *b == '\0';
}

/// The KGACC_LOG environment variable names the minimum emitted severity
/// (debug|info|warning|error|fatal, case-insensitive); unset or unparseable
/// values keep the kInfo default. SetMinLogLevel still wins once called.
int LevelFromEnv() {
  const char* env = std::getenv("KGACC_LOG");
  if (env != nullptr) {
    if (EqualsIgnoreCase(env, "debug")) return static_cast<int>(LogLevel::kDebug);
    if (EqualsIgnoreCase(env, "info")) return static_cast<int>(LogLevel::kInfo);
    if (EqualsIgnoreCase(env, "warning") || EqualsIgnoreCase(env, "warn")) {
      return static_cast<int>(LogLevel::kWarning);
    }
    if (EqualsIgnoreCase(env, "error")) return static_cast<int>(LogLevel::kError);
    if (EqualsIgnoreCase(env, "fatal")) return static_cast<int>(LogLevel::kFatal);
    std::fprintf(
        stderr,
        "[WARN] unknown KGACC_LOG level '%s' "
        "(want debug|info|warning|error|fatal)\n",
        env);
  }
  return static_cast<int>(LogLevel::kInfo);
}

/// Process-relative timestamp origin, on the same MonotonicNanos() clock as
/// every span and stopwatch in the library.
uint64_t LogEpochNanos() {
  static const uint64_t epoch = MonotonicNanos();
  return epoch;
}

}  // namespace

void SetMinLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetMinLogLevel() {
  int level = g_min_level.load(std::memory_order_relaxed);
  if (level == kLevelUnset) {
    int expected = kLevelUnset;
    // First caller wins; a concurrent SetMinLogLevel takes precedence.
    g_min_level.compare_exchange_strong(expected, LevelFromEnv(),
                                        std::memory_order_relaxed);
    level = g_min_level.load(std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(level);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // The epoch first: on the process's first message it is set here, and a
  // clock read taken before it would underflow the difference.
  const uint64_t epoch = LogEpochNanos();
  const double elapsed =
      static_cast<double>(MonotonicNanos() - epoch) * 1e-9;
  char timestamp[32];
  std::snprintf(timestamp, sizeof(timestamp), "%.3f", elapsed);
  stream_ << "[" << LevelName(level) << " " << timestamp << "s " << file << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= GetMinLogLevel() || level_ == LogLevel::kFatal) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace kgacc
