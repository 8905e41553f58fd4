#include "obs/trace.h"

#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.h"

namespace kgacc::obs {

namespace {

struct TraceEvent {
  const char* name;   ///< static storage (string literal).
  uint64_t start_ns;  ///< absolute MonotonicNanos at span start.
  uint64_t dur_ns;    ///< 0 for counter events.
  double counter_value = 0.0;
  bool is_counter = false;
};

/// Cap per thread so a forgotten session cannot grow without bound (~8M
/// events across 16 threads ≈ 400 MB worst case; real campaigns emit a few
/// thousand).
constexpr size_t kMaxEventsPerThread = 1 << 19;

/// One buffer per thread that ever emitted an event. The mutex only guards
/// against the exporter; the owning thread is the sole appender.
struct ThreadTraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  uint64_t tid = 0;
  char track_name[32] = {0};
};

struct TraceGlobals {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  uint64_t session_start_ns = 0;
  uint64_t next_tid = 1;
};

TraceGlobals& Globals() {
  static auto* globals = new TraceGlobals();
  return *globals;
}

thread_local char t_track_name[32] = {0};

ThreadTraceBuffer& LocalBuffer() {
  thread_local const std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    auto created = std::make_shared<ThreadTraceBuffer>();
    TraceGlobals& globals = Globals();
    std::lock_guard<std::mutex> lock(globals.mutex);
    created->tid = globals.next_tid++;
    std::memcpy(created->track_name, t_track_name, sizeof(t_track_name));
    globals.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

void SetThreadTrackName(const char* name) {
  std::strncpy(t_track_name, name, sizeof(t_track_name) - 1);
  t_track_name[sizeof(t_track_name) - 1] = '\0';
}

void TraceSession::Start() {
  TraceGlobals& globals = Globals();
  {
    std::lock_guard<std::mutex> lock(globals.mutex);
    globals.session_start_ns = MonotonicNanos();
    for (const auto& buffer : globals.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      buffer->events.clear();
    }
  }
  internal::SetObsModeBit(kModeTrace, true);
}

void TraceSession::Stop() { internal::SetObsModeBit(kModeTrace, false); }

bool TraceSession::Active() { return (ObsMode() & kModeTrace) != 0; }

uint64_t TraceSession::EventCount() {
  TraceGlobals& globals = Globals();
  std::lock_guard<std::mutex> lock(globals.mutex);
  uint64_t total = 0;
  for (const auto& buffer : globals.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

namespace internal {

void EmitCompleteEvent(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  ThreadTraceBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) return;
  buffer.events.push_back(TraceEvent{name, start_ns, dur_ns});
}

void EmitCounterEvent(const char* name, double value) {
  ThreadTraceBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) return;
  buffer.events.push_back(
      TraceEvent{name, MonotonicNanos(), 0, value, /*is_counter=*/true});
}

}  // namespace internal

Status TraceSession::WriteJson(const std::string& path) {
  TraceGlobals& globals = Globals();
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("displayTimeUnit").String("ms");
  writer.Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(globals.mutex);
    const uint64_t t0 = globals.session_start_ns;
    for (const auto& buffer : globals.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      if (buffer->events.empty()) continue;
      // Track metadata first, so Perfetto names the row.
      writer.BeginObject();
      writer.Key("name").String("thread_name");
      writer.Key("ph").String("M");
      writer.Key("pid").Int(1);
      writer.Key("tid").Uint(buffer->tid);
      writer.Key("args").BeginObject();
      writer.Key("name").String(
          buffer->track_name[0] != '\0'
              ? std::string(buffer->track_name)
              : (buffer->tid == 1 ? std::string("main")
                                  : "thread-" + std::to_string(buffer->tid)));
      writer.EndObject();
      writer.EndObject();
      for (const TraceEvent& event : buffer->events) {
        const uint64_t rel_ns =
            event.start_ns >= t0 ? event.start_ns - t0 : 0;
        writer.BeginObject();
        writer.Key("name").String(event.name);
        writer.Key("cat").String("kgacc");
        writer.Key("ph").String(event.is_counter ? "C" : "X");
        // Chrome trace timestamps are microseconds; fractional values keep
        // nanosecond precision.
        writer.Key("ts").Number(static_cast<double>(rel_ns) * 1e-3);
        if (event.is_counter) {
          writer.Key("args").BeginObject();
          writer.Key("value").Number(event.counter_value);
          writer.EndObject();
        } else {
          writer.Key("dur").Number(static_cast<double>(event.dur_ns) * 1e-3);
        }
        writer.Key("pid").Int(1);
        writer.Key("tid").Uint(buffer->tid);
        writer.EndObject();
      }
    }
  }
  writer.EndArray();
  writer.EndObject();

  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << writer.TakeString() << '\n';
  if (!out.good()) return Status::IOError("error writing '" + path + "'");
  return Status::OK();
}

}  // namespace kgacc::obs
