#pragma once

// Process-wide runtime metrics: named counters, gauges and log-bucketed
// latency histograms, designed so instrumentation can sit on the concurrent
// annotation hot path without serializing it:
//
//  - every accumulator is striped across cache-line-padded atomic slots
//    indexed by a per-thread stripe id, written with relaxed ordering, and
//    reduced only at snapshot time — concurrent writers never contend on a
//    line and never take a lock;
//  - histograms bucket durations on a log grid (8 sub-buckets per octave of
//    nanoseconds, pure integer math), giving p50/p95/p99 within one bucket
//    width (≤ 12.5% relative) plus the exact min/max, without ever storing
//    samples;
//  - collection is off by default behind one relaxed atomic flag, so an
//    uninstrumented run pays a load+branch per site.
//
// Hard invariant (pinned by tests/metrics_determinism_test.cc): recording
// metrics never touches an RNG stream, never reorders an annotation, and
// never feeds back into the evaluation — results are bit-identical with
// metrics on or off.
//
// Metric naming convention: `<layer>.<component>.<metric>`, with the unit as
// a suffix (`_seconds` for histograms of durations), e.g.
// `engine.round.sample_seconds`, `annotation.cache.hits`.

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace kgacc::obs {

/// Master switch for metric collection (and the cheap half of span
/// recording). Off by default; `kgacc_eval --metrics`, `kgacc_serve` and
/// the benches flip it on.
void EnableMetrics(bool enabled);
bool MetricsEnabled();

/// Bits of the combined observability mode word: one relaxed atomic load
/// tells an instrumentation site whether metrics collection and/or trace
/// recording is on. kModeMetrics mirrors MetricsEnabled(); kModeTrace
/// mirrors TraceSession::Active() (obs/trace.h).
inline constexpr uint32_t kModeMetrics = 1u << 0;
inline constexpr uint32_t kModeTrace = 1u << 1;
uint32_t ObsMode();

namespace internal {

/// Stripe count for all sharded accumulators. A power of two comfortably
/// above typical worker counts (<= 16), small enough that snapshot reduces
/// stay trivial.
inline constexpr size_t kStripes = 16;

/// This thread's stripe slot, assigned round-robin on first use.
size_t ThreadStripe();

/// Flips one bit of the ObsMode() word (EnableMetrics and TraceSession use
/// this; instrumentation only reads).
void SetObsModeBit(uint32_t bit, bool on);

struct alignas(64) PaddedAtomicU64 {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonically increasing event count. Add() is a relaxed fetch_add on the
/// caller's stripe; Value() reduces the stripes.
class Counter {
 public:
  void Add(uint64_t n) {
    stripes_[internal::ThreadStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  internal::PaddedAtomicU64 stripes_[internal::kStripes];
};

/// Last-written instantaneous value (queue depths, configuration echoes).
class Gauge {
 public:
  void Set(double value) {
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }

  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

  void Reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  static_assert(sizeof(double) == sizeof(uint64_t));
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

/// The log-bucket grid shared by every histogram. Durations are recorded as
/// nanoseconds; bucket `i` covers `[BucketLowerNanos(i), BucketUpperNanos(i))`.
/// For ns < 8 the buckets are exact single-nanosecond cells; above that each
/// octave splits into 8 linear sub-buckets (HdrHistogram-style), all integer
/// math (no libm on the hot path).
inline constexpr size_t kHistogramBuckets = 8 + 61 * 8;  // ns 0..7, octaves 3..63.

size_t HistogramBucketIndex(uint64_t nanos);
uint64_t BucketLowerNanos(size_t index);
uint64_t BucketUpperNanos(size_t index);

/// Point-in-time reduction of one histogram. Percentiles are bucket
/// midpoints clamped into [min_seconds, max_seconds], except p100
/// (`max_seconds`), which is exact.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum_seconds = 0.0;
  double min_seconds = 0.0;  ///< exact; 0 when count == 0.
  double max_seconds = 0.0;  ///< exact; 0 when count == 0.
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;

  struct Bucket {
    size_t index = 0;  ///< grid index (see BucketLowerNanos/BucketUpperNanos).
    uint64_t count = 0;
  };
  std::vector<Bucket> buckets;  ///< non-empty buckets, ascending by index.

  /// The q-quantile (q in [0, 1]) recomputed from the buckets; midpoint of
  /// the bucket holding the rank. 0 when empty.
  double Percentile(double q) const;

  /// Pointwise sum of two snapshots over the shared grid: bucket counts add,
  /// min/max/sum/count combine, percentiles recompute. Associative and
  /// commutative (pinned by tests), so shards/processes can reduce in any
  /// order.
  static HistogramSnapshot Merged(const HistogramSnapshot& a,
                                  const HistogramSnapshot& b);
};

/// Striped log-bucket latency histogram. Record() touches only the caller's
/// stripe (one relaxed fetch_add for the bucket, two for sum/count, CAS loops
/// for the stripe min/max); Snapshot() reduces all stripes.
class Histogram {
 public:
  Histogram();

  /// Records one duration. Negative values clamp to zero.
  void RecordSeconds(double seconds) {
    RecordNanos(seconds <= 0.0 ? 0
                               : static_cast<uint64_t>(seconds * 1e9 + 0.5));
  }

  void RecordNanos(uint64_t nanos);

  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> sum_nanos{0};
    std::atomic<uint64_t> min_nanos{UINT64_MAX};
    std::atomic<uint64_t> max_nanos{0};
  };

  Stripe stripes_[internal::kStripes];
  /// Bucket counts, striped: stripe s owns buckets_[s * kHistogramBuckets ..].
  std::vector<std::atomic<uint64_t>> buckets_;
};

/// Everything the registry knew at one instant, ready for kgacc-metrics-v1
/// serialization. Entries are name-sorted.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramSnapshot> histograms;

  const HistogramSnapshot* FindHistogram(std::string_view name) const;
  const CounterValue* FindCounter(std::string_view name) const;
};

/// Name -> metric directory. Lookup takes a mutex, so instrumented code
/// resolves its metrics once (function-local static) and records through the
/// returned pointer, which stays valid for the process lifetime —
/// ResetValues() zeroes values but never invalidates pointers.
class MetricsRegistry {
 public:
  /// The process-wide registry almost all instrumentation uses. Separate
  /// instances exist only for tests.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Reduces every metric; safe while writers are recording (relaxed reads
  /// may miss in-flight updates, never tear).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every value, keeping all registered metrics (and pointers to
  /// them) alive. Benches and tests use this to delimit measurement windows.
  void ResetValues();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Serializes a snapshot as a `kgacc-metrics-v1` JSON document (via
/// util/json's JsonWriter):
///
///   {"schema": "kgacc-metrics-v1",
///    "counters":   [{"name": "...", "value": 123}, ...],
///    "gauges":     [{"name": "...", "value": 1.5}, ...],
///    "histograms": [{"name": "...", "count": 9, "sum_seconds": ...,
///                    "min_seconds": ..., "max_seconds": ...,
///                    "p50_seconds": ..., "p95_seconds": ..., "p99_seconds": ...,
///                    "buckets": [{"le_seconds": 1e-6, "count": 4}, ...]}]}
///
/// A gauge that is not finite (inf, nan) has the value null. `le_seconds` is
/// the bucket's upper bound; buckets are ascending and only non-empty ones
/// are written. kgacc_trace_check validates this schema.
std::string MetricsToJson(const MetricsSnapshot& snapshot);
Status WriteMetricsJson(const std::string& path,
                        const MetricsSnapshot& snapshot);

}  // namespace kgacc::obs
