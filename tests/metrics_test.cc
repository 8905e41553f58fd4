// The obs metrics layer: log-bucket grid geometry, histogram percentile
// accuracy against an exact reference, snapshot merging algebra, striped
// counter/histogram correctness under concurrent writers (the TSan target
// for this subsystem), and the kgacc-metrics-v1 / Chrome trace JSON exports.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "test_util.h"
#include "util/json.h"
#include "util/rng.h"

namespace kgacc::obs {
namespace {

TEST(HistogramGridTest, ExactCellsBelowEight) {
  for (uint64_t ns = 0; ns < 8; ++ns) {
    const size_t index = HistogramBucketIndex(ns);
    EXPECT_EQ(index, ns);
    EXPECT_EQ(BucketLowerNanos(index), ns);
    EXPECT_EQ(BucketUpperNanos(index), ns + 1);
  }
}

TEST(HistogramGridTest, EveryValueLandsInsideItsBucket) {
  Rng rng(7);
  std::vector<uint64_t> probes = {8, 9, 15, 16, 17, 1000, 1'000'000,
                                  1'000'000'000, UINT64_MAX / 2, UINT64_MAX};
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform probes so every octave gets hit.
    const int shift = static_cast<int>(rng.UniformIndex(61));
    probes.push_back((uint64_t{8} << shift) + rng.UniformIndex(1u << 16));
  }
  for (const uint64_t ns : probes) {
    const size_t index = HistogramBucketIndex(ns);
    ASSERT_LT(index, kHistogramBuckets) << "ns=" << ns;
    EXPECT_GE(ns, BucketLowerNanos(index)) << "ns=" << ns;
    // The very top bucket's upper bound (2^64 ns, ~584 years) wraps to 0;
    // it is effectively unbounded above.
    if (index + 1 < kHistogramBuckets) {
      EXPECT_LT(ns, BucketUpperNanos(index)) << "ns=" << ns;
    }
  }
}

TEST(HistogramGridTest, GridIsContiguousAndAscending) {
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_LT(BucketLowerNanos(i), BucketUpperNanos(i)) << "bucket " << i;
    EXPECT_EQ(BucketUpperNanos(i), BucketLowerNanos(i + 1)) << "bucket " << i;
  }
}

TEST(HistogramGridTest, BucketWidthIsAtMostOneEighthOfLowerBound) {
  // The accuracy contract: 8 sub-buckets per octave means a bucket is never
  // wider than 12.5% of its lower bound, so midpoint percentiles are within
  // ~6.25% of the true value.
  for (size_t i = 8; i + 1 < kHistogramBuckets; ++i) {  // top bucket wraps.
    const uint64_t lo = BucketLowerNanos(i);
    const uint64_t width = BucketUpperNanos(i) - lo;
    EXPECT_LE(width, lo / 8) << "bucket " << i;
  }
}

TEST(HistogramTest, CountSumMinMaxAreExact) {
  Histogram h;
  h.RecordNanos(1000);
  h.RecordNanos(3000);
  h.RecordNanos(500);
  h.RecordSeconds(-1.0);  // clamps to 0.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum_seconds, 4500e-9);
  EXPECT_DOUBLE_EQ(snap.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 3000e-9);
}

TEST(HistogramTest, PercentilesWithinOneBucketWidth) {
  Histogram h;
  Rng rng(11);
  std::vector<uint64_t> samples;
  for (int i = 0; i < 50000; ++i) {
    // Spread over ~4 decades so percentiles land in interesting octaves.
    const uint64_t ns = 100 + rng.UniformIndex(1'000'000);
    samples.push_back(ns);
    h.RecordNanos(ns);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snap = h.Snapshot();
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact =
        static_cast<double>(
            samples[static_cast<size_t>(q * (samples.size() - 1))]) *
        1e-9;
    const double approx = snap.Percentile(q);
    EXPECT_NEAR(approx, exact, exact * 0.125) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.p50_seconds, snap.Percentile(0.5));
  EXPECT_DOUBLE_EQ(snap.p95_seconds, snap.Percentile(0.95));
  EXPECT_DOUBLE_EQ(snap.p99_seconds, snap.Percentile(0.99));
}

TEST(HistogramTest, PercentilesStayWithinMinAndMax) {
  // Both samples fall in the [960, 1024) ns bucket, whose 992 ns midpoint
  // lies above the first and below the second: unclamped, a one-sample
  // histogram would report a p50 outside its own [min, max].
  for (const uint64_t ns : {961u, 1000u}) {
    Histogram h;
    h.RecordNanos(ns);
    const HistogramSnapshot snap = h.Snapshot();
    EXPECT_DOUBLE_EQ(snap.min_seconds, static_cast<double>(ns) * 1e-9);
    EXPECT_EQ(snap.min_seconds, snap.max_seconds);
    EXPECT_EQ(snap.p50_seconds, snap.min_seconds) << ns << " ns";
    EXPECT_EQ(snap.p99_seconds, snap.min_seconds) << ns << " ns";
  }
}

HistogramSnapshot SnapshotOf(std::vector<uint64_t> nanos) {
  Histogram h;
  for (const uint64_t ns : nanos) h.RecordNanos(ns);
  return h.Snapshot();
}

void ExpectSameSnapshot(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum_seconds, b.sum_seconds);
  EXPECT_DOUBLE_EQ(a.min_seconds, b.min_seconds);
  EXPECT_DOUBLE_EQ(a.max_seconds, b.max_seconds);
  EXPECT_DOUBLE_EQ(a.p50_seconds, b.p50_seconds);
  EXPECT_DOUBLE_EQ(a.p95_seconds, b.p95_seconds);
  EXPECT_DOUBLE_EQ(a.p99_seconds, b.p99_seconds);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].index, b.buckets[i].index);
    EXPECT_EQ(a.buckets[i].count, b.buckets[i].count);
  }
}

TEST(HistogramTest, MergeIsCommutativeAssociativeAndMatchesUnion) {
  const HistogramSnapshot a = SnapshotOf({100, 200, 5000});
  const HistogramSnapshot b = SnapshotOf({150, 9'000'000});
  const HistogramSnapshot c = SnapshotOf({3, 70'000});
  ExpectSameSnapshot(HistogramSnapshot::Merged(a, b),
                     HistogramSnapshot::Merged(b, a));
  ExpectSameSnapshot(
      HistogramSnapshot::Merged(HistogramSnapshot::Merged(a, b), c),
      HistogramSnapshot::Merged(a, HistogramSnapshot::Merged(b, c)));
  // Merging shards equals one histogram that saw every sample.
  const HistogramSnapshot all =
      SnapshotOf({100, 200, 5000, 150, 9'000'000, 3, 70'000});
  HistogramSnapshot merged = HistogramSnapshot::Merged(
      HistogramSnapshot::Merged(a, b), c);
  merged.name = all.name;
  ExpectSameSnapshot(all, merged);
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  const HistogramSnapshot a = SnapshotOf({42, 4242});
  const HistogramSnapshot empty = SnapshotOf({});
  ExpectSameSnapshot(HistogramSnapshot::Merged(a, empty), a);
  ExpectSameSnapshot(HistogramSnapshot::Merged(empty, a), a);
  EXPECT_EQ(HistogramSnapshot::Merged(empty, empty).count, 0u);
}

TEST(MetricsRegistryTest, ResolvesStablePointersAndResetsValues) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter, registry.GetCounter("test.counter"));
  counter->Add(7);
  registry.GetGauge("test.gauge")->Set(2.5);
  registry.GetHistogram("test.hist")->RecordNanos(999);
  registry.ResetValues();
  EXPECT_EQ(counter, registry.GetCounter("test.counter"));
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("test.gauge")->Value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("test.hist")->Snapshot().count, 0u);
}

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Add(2);
  registry.GetCounter("a.counter")->Add(1);
  registry.GetHistogram("z.hist")->RecordNanos(5);
  registry.GetHistogram("a.hist")->RecordNanos(6);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.counter");
  EXPECT_EQ(snap.counters[1].name, "b.counter");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "a.hist");
  ASSERT_NE(snap.FindCounter("b.counter"), nullptr);
  EXPECT_EQ(snap.FindCounter("b.counter")->value, 2u);
  EXPECT_EQ(snap.FindCounter("nope"), nullptr);
  ASSERT_NE(snap.FindHistogram("z.hist"), nullptr);
  EXPECT_EQ(snap.FindHistogram("z.hist")->count, 1u);
}

// The subsystem's concurrency contract, and the suite's TSan target: many
// threads hammering the same named metrics while another thread snapshots,
// with exact totals once the writers join.
TEST(MetricsRegistryTest, ConcurrentWritersProduceExactTotals) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = registry.Snapshot();
      // Relaxed reads may miss in-flight updates but never tear.
      if (const auto* c = snap.FindCounter("stress.counter")) {
        EXPECT_LE(c->value,
                  static_cast<uint64_t>(kThreads) * kIterations);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      Counter* counter = registry.GetCounter("stress.counter");
      Histogram* histogram = registry.GetHistogram("stress.hist");
      Gauge* gauge = registry.GetGauge("stress.gauge");
      for (int i = 0; i < kIterations; ++i) {
        counter->Add(1);
        histogram->RecordNanos(static_cast<uint64_t>(t) * 1000 + i);
        gauge->Set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("stress.counter")->value,
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(snap.FindHistogram("stress.hist")->count,
            static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(MetricsJsonTest, NonFiniteGaugesExportAsNull) {
  // An unlimited scheduler budget is an infinite gauge; the export must
  // still parse (a bare `inf` is not JSON).
  MetricsRegistry registry;
  registry.GetGauge("json.finite")->Set(2.5);
  registry.GetGauge("json.inf")->Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("json.minus_inf")
      ->Set(-std::numeric_limits<double>::infinity());
  registry.GetGauge("json.nan")->Set(std::numeric_limits<double>::quiet_NaN());
  const std::string json = MetricsToJson(registry.Snapshot());
  const Result<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_EQ(gauges->AsArray().size(), 4u);
  for (const JsonValue& gauge : gauges->AsArray()) {
    const std::string name = gauge.Find("name")->AsString();
    const JsonValue* value = gauge.Find("value");
    ASSERT_NE(value, nullptr) << name;
    if (name == "json.finite") {
      EXPECT_EQ(value->AsNumber(), 2.5);
    } else {
      EXPECT_TRUE(value->is_null()) << name;
    }
  }
}

TEST(MetricsJsonTest, SerializesAndParsesBack) {
  MetricsRegistry registry;
  registry.GetCounter("json.counter")->Add(3);
  registry.GetGauge("json.gauge")->Set(1.5);
  Histogram* histogram = registry.GetHistogram("json.hist_seconds");
  histogram->RecordNanos(1000);
  histogram->RecordNanos(2000);
  const std::string json = MetricsToJson(registry.Snapshot());
  const Result<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->Find("schema"), nullptr);
  EXPECT_EQ(doc->Find("schema")->AsString(), "kgacc-metrics-v1");
  const JsonValue* histograms = doc->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_EQ(histograms->AsArray().size(), 1u);
  const JsonValue& entry = histograms->AsArray()[0];
  EXPECT_EQ(entry.Find("name")->AsString(), "json.hist_seconds");
  EXPECT_EQ(entry.Find("count")->AsNumber(), 2.0);
  const auto& buckets = entry.Find("buckets")->AsArray();
  ASSERT_FALSE(buckets.empty());
  uint64_t total = 0;
  double prev_le = 0.0;
  for (const JsonValue& bucket : buckets) {
    total += static_cast<uint64_t>(bucket.Find("count")->AsNumber());
    const double le = bucket.Find("le_seconds")->AsNumber();
    EXPECT_GT(le, prev_le);
    prev_le = le;
  }
  EXPECT_EQ(total, 2u);
}

TEST(ObsModeTest, EnableFlagsMirrorIntoModeWord) {
  EnableMetrics(false);
  TraceSession::Stop();
  EXPECT_EQ(ObsMode() & (kModeMetrics | kModeTrace), 0u);
  EnableMetrics(true);
  EXPECT_NE(ObsMode() & kModeMetrics, 0u);
  TraceSession::Start();
  EXPECT_NE(ObsMode() & kModeTrace, 0u);
  EXPECT_TRUE(TraceSession::Active());
  TraceSession::Stop();
  EnableMetrics(false);
  EXPECT_EQ(ObsMode() & (kModeMetrics | kModeTrace), 0u);
}

TEST(TraceSessionTest, SpansExportAsChromeTraceEvents) {
  TraceSession::Start();
  {
    ScopedSpan outer("test.outer");
    ScopedSpan inner("test.inner");
  }
  internal::EmitCounterEvent("test.depth", 4.0);
  TraceSession::Stop();
  EXPECT_GE(TraceSession::EventCount(), 3u);

  const std::string path =
      kgacc::testing::TempPath("metrics_test_trace.json");
  ASSERT_TRUE(TraceSession::WriteJson(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Result<JsonValue> doc = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_outer = false, saw_counter = false, saw_thread_name = false;
  for (const JsonValue& event : events->AsArray()) {
    const std::string ph = event.Find("ph")->AsString();
    const std::string name = event.Find("name")->AsString();
    if (ph == "X" && name == "test.outer") {
      saw_outer = true;
      EXPECT_GE(event.Find("dur")->AsNumber(), 0.0);
    }
    if (ph == "C" && name == "test.depth") {
      saw_counter = true;
      EXPECT_EQ(event.Find("args")->Find("value")->AsNumber(), 4.0);
    }
    if (ph == "M" && name == "thread_name") saw_thread_name = true;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_thread_name);
  std::remove(path.c_str());
}

TEST(ScopedSpanTest, InactiveSpanRecordsNothing) {
  EnableMetrics(false);
  TraceSession::Stop();
  Histogram histogram;
  {
    ScopedSpan span("test.idle", &histogram);
    EXPECT_DOUBLE_EQ(span.Finish(), 0.0);
  }
  EXPECT_EQ(histogram.Snapshot().count, 0u);
}

TEST(ScopedSpanTest, FinishIsIdempotentAndRecordsOnce) {
  EnableMetrics(true);
  Histogram histogram;
  {
    ScopedSpan span("test.once", &histogram);
    EXPECT_GE(span.Finish(), 0.0);
    EXPECT_DOUBLE_EQ(span.Finish(), 0.0);  // second Finish is a no-op.
  }  // destructor must not double-record either.
  EnableMetrics(false);
  EXPECT_EQ(histogram.Snapshot().count, 1u);
}

TEST(ScopedSpanTest, SpanWithoutHistogramIsTraceOnly) {
  EnableMetrics(true);
  TraceSession::Stop();
  {
    ScopedSpan span("test.trace_only");
    EXPECT_DOUBLE_EQ(span.Finish(), 0.0);  // metrics alone read no clock.
  }
  EnableMetrics(false);
}

TEST(PhaseSpansTest, LapsShareBoundaries) {
  EnableMetrics(true);
  Histogram first;
  Histogram second;
  Histogram skipped;
  {
    PhaseSpans phases(1000);
    phases.Lap("test.first", &first, 1500);
    phases.Lap(nullptr, &skipped, 1700);  // ends a phase unrecorded.
    phases.Lap("test.second", &second, 2000);
  }
  EnableMetrics(false);
  const HistogramSnapshot a = first.Snapshot();
  const HistogramSnapshot b = second.Snapshot();
  ASSERT_EQ(a.count, 1u);
  ASSERT_EQ(b.count, 1u);
  EXPECT_DOUBLE_EQ(a.sum_seconds, 500e-9);
  EXPECT_DOUBLE_EQ(b.sum_seconds, 300e-9);  // starts where the skip ended.
  EXPECT_EQ(skipped.Snapshot().count, 0u);
}

TEST(PhaseSpansTest, InactivePhasesRecordNothing) {
  EnableMetrics(false);
  TraceSession::Stop();
  Histogram histogram;
  PhaseSpans phases(MonotonicNanos());
  phases.Lap("test.idle", &histogram);
  phases.Lap("test.idle", &histogram, MonotonicNanos());
  EXPECT_EQ(histogram.Snapshot().count, 0u);
}

}  // namespace
}  // namespace kgacc::obs
