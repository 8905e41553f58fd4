#pragma once

// Chrome trace_event export + the RAII ScopedSpan that feeds both the
// latency histograms (obs/metrics.h) and the trace.
//
// A TraceSession is a process-wide recording window. While it is active,
// every ScopedSpan appends one complete ("ph": "X") event to a thread-local
// buffer; WriteJson() merges the buffers into a `{"traceEvents": [...]}`
// document that chrome://tracing and Perfetto load directly, with one track
// per thread (thread_name metadata events included). Timestamps come from
// the same MonotonicNanos() clock as every other stopwatch in the library.
//
// Cost model: with no session active and metrics disabled, a ScopedSpan is
// one relaxed atomic load in the constructor and one branch in the
// destructor. While recording, appends are thread-local behind a per-buffer
// mutex that only the exporter ever contends on.
//
// Like the metrics layer, tracing never influences the traced computation:
// no RNG, no reordering, bit-identical evaluation output either way.

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/timer.h"

namespace kgacc::obs {

class TraceSession {
 public:
  /// Starts (or restarts) the process-wide recording window, discarding any
  /// previously buffered events.
  static void Start();

  /// Stops recording; buffered events stay available for WriteJson.
  static void Stop();

  static bool Active();

  /// Writes everything recorded since Start() as a Chrome trace_event JSON
  /// document. May be called while the session is active or after Stop().
  static Status WriteJson(const std::string& path);

  /// Number of buffered events across all threads (diagnostics/tests).
  static uint64_t EventCount();
};

/// Names this thread's track in exported traces ("pool-worker-3"). Cheap;
/// callable before any session starts. Names longer than 31 bytes truncate.
void SetThreadTrackName(const char* name);

namespace internal {

/// Appends one complete event to this thread's buffer; `name` must have
/// static storage duration (instrumentation passes string literals).
void EmitCompleteEvent(const char* name, uint64_t start_ns, uint64_t dur_ns);

/// Appends a Chrome counter-track sample ("ph": "C"), e.g. queue depth.
void EmitCounterEvent(const char* name, double value);

}  // namespace internal

/// RAII phase timer: measures [construction, destruction) on the monotonic
/// clock, records the duration into `histogram` (when metrics are enabled)
/// and emits a trace event (when a session is active). With neither to feed
/// it does nothing but read one atomic.
class ScopedSpan {
 public:
  /// `name` must outlive the process (string literal); `histogram` may be
  /// null for a trace-only span, which reads no clock unless a trace
  /// session is active.
  explicit ScopedSpan(const char* name, Histogram* histogram = nullptr)
      : name_(name), histogram_(histogram) {
    mode_ = ObsMode() & (histogram_ != nullptr ? ~0u : kModeTrace);
    if (mode_ != 0) start_ns_ = MonotonicNanos();
  }

  ~ScopedSpan() { Finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent). Returns the measured seconds, 0.0
  /// when observability was inactive at construction.
  double Finish() {
    if (mode_ == 0) return 0.0;
    const uint64_t dur_ns = MonotonicNanos() - start_ns_;
    if ((mode_ & kModeMetrics) != 0 && histogram_ != nullptr) {
      histogram_->RecordNanos(dur_ns);
    }
    if ((mode_ & kModeTrace) != 0) {
      internal::EmitCompleteEvent(name_, start_ns_, dur_ns);
    }
    mode_ = 0;
    return static_cast<double>(dur_ns) * 1e-9;
  }

 private:
  const char* name_;
  Histogram* histogram_;
  uint32_t mode_ = 0;
  uint64_t start_ns_ = 0;
};

/// Back-to-back phases timed with one clock read per boundary: Lap() ends
/// the running phase at the instant the next one starts, so n consecutive
/// phases read the clock n + 1 times where n ScopedSpans read it 2n times.
/// Each phase records and traces like a ScopedSpan of the same name. A
/// caller that reads the clock anyway (a product-level stopwatch) passes its
/// readings in, and those boundaries cost the spans no read at all.
class PhaseSpans {
 public:
  /// Starts the first phase at `start_ns`, a MonotonicNanos() reading.
  explicit PhaseSpans(uint64_t start_ns)
      : mode_(ObsMode()), start_ns_(start_ns) {}

  /// Ends the running phase at `end_ns` (a MonotonicNanos() reading) as
  /// span `name` recorded into `histogram` (may be null), and starts the
  /// next phase there. A null `name` ends the phase unrecorded.
  void Lap(const char* name, Histogram* histogram, uint64_t end_ns) {
    if (mode_ == 0) return;
    if (name != nullptr) {
      const uint64_t dur_ns = end_ns - start_ns_;
      if ((mode_ & kModeMetrics) != 0 && histogram != nullptr) {
        histogram->RecordNanos(dur_ns);
      }
      if ((mode_ & kModeTrace) != 0) {
        internal::EmitCompleteEvent(name, start_ns_, dur_ns);
      }
    }
    start_ns_ = end_ns;
  }

  /// Lap() now; reads the clock only while observability is on.
  void Lap(const char* name, Histogram* histogram) {
    if (mode_ != 0) Lap(name, histogram, MonotonicNanos());
  }

 private:
  uint32_t mode_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace kgacc::obs
