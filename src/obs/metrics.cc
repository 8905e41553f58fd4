#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>

#include "util/json.h"
#include "util/logging.h"

namespace kgacc::obs {

namespace {

/// Combined metrics|trace mode bits (see ObsMode()).
std::atomic<uint32_t> g_obs_mode{0};

/// Round-robin stripe assignment; threads created together land on distinct
/// stripes, so pool workers never share a cache line.
std::atomic<size_t> g_next_stripe{0};

}  // namespace

void EnableMetrics(bool enabled) {
  internal::SetObsModeBit(kModeMetrics, enabled);
}

bool MetricsEnabled() { return (ObsMode() & kModeMetrics) != 0; }

uint32_t ObsMode() {
  return g_obs_mode.load(std::memory_order_relaxed);
}

namespace internal {

size_t ThreadStripe() {
  thread_local const size_t stripe =
      g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

void SetObsModeBit(uint32_t bit, bool on) {
  if (on) {
    g_obs_mode.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_obs_mode.fetch_and(~bit, std::memory_order_relaxed);
  }
}

}  // namespace internal

size_t HistogramBucketIndex(uint64_t nanos) {
  if (nanos < 8) return static_cast<size_t>(nanos);
  const int octave = std::bit_width(nanos) - 1;  // >= 3.
  const uint64_t sub = (nanos >> (octave - 3)) & 7;
  return static_cast<size_t>(octave - 3) * 8 + 8 + static_cast<size_t>(sub);
}

uint64_t BucketLowerNanos(size_t index) {
  KGACC_DCHECK(index < kHistogramBuckets);
  if (index < 8) return index;
  const int octave = static_cast<int>((index - 8) / 8) + 3;
  const uint64_t sub = (index - 8) % 8;
  return (8 + sub) << (octave - 3);
}

uint64_t BucketUpperNanos(size_t index) {
  KGACC_DCHECK(index < kHistogramBuckets);
  if (index < 8) return index + 1;
  const int octave = static_cast<int>((index - 8) / 8) + 3;
  const uint64_t sub = (index - 8) % 8;
  return (9 + sub) << (octave - 3);
}

Histogram::Histogram() : buckets_(internal::kStripes * kHistogramBuckets) {}

void Histogram::RecordNanos(uint64_t nanos) {
  const size_t stripe = internal::ThreadStripe();
  Stripe& s = stripes_[stripe];
  s.sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
  // Stripe min/max via relaxed CAS loops (contention-free: one writer set
  // per stripe in the common case).
  uint64_t seen = s.min_nanos.load(std::memory_order_relaxed);
  while (nanos < seen &&
         !s.min_nanos.compare_exchange_weak(seen, nanos,
                                            std::memory_order_relaxed)) {
  }
  seen = s.max_nanos.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !s.max_nanos.compare_exchange_weak(seen, nanos,
                                            std::memory_order_relaxed)) {
  }
  buckets_[stripe * kHistogramBuckets + HistogramBucketIndex(nanos)].fetch_add(
      1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  uint64_t sum_nanos = 0;
  uint64_t min_nanos = UINT64_MAX;
  uint64_t max_nanos = 0;
  for (const Stripe& s : stripes_) {
    sum_nanos += s.sum_nanos.load(std::memory_order_relaxed);
    min_nanos = std::min(min_nanos, s.min_nanos.load(std::memory_order_relaxed));
    max_nanos = std::max(max_nanos, s.max_nanos.load(std::memory_order_relaxed));
  }
  // Every record lands in exactly one bucket, so the buckets also carry
  // the count: one atomic add fewer per record.
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    uint64_t n = 0;
    for (size_t s = 0; s < internal::kStripes; ++s) {
      n += buckets_[s * kHistogramBuckets + b].load(std::memory_order_relaxed);
    }
    if (n > 0) out.buckets.push_back({b, n});
    out.count += n;
  }
  out.sum_seconds = static_cast<double>(sum_nanos) * 1e-9;
  if (out.count > 0) {
    out.min_seconds = static_cast<double>(min_nanos) * 1e-9;
    out.max_seconds = static_cast<double>(max_nanos) * 1e-9;
  }
  out.p50_seconds = out.Percentile(0.50);
  out.p95_seconds = out.Percentile(0.95);
  out.p99_seconds = out.Percentile(0.99);
  return out;
}

void Histogram::Reset() {
  for (Stripe& s : stripes_) {
    s.sum_nanos.store(0, std::memory_order_relaxed);
    s.min_nanos.store(UINT64_MAX, std::memory_order_relaxed);
    s.max_nanos.store(0, std::memory_order_relaxed);
  }
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double q) const {
  uint64_t total = 0;
  for (const Bucket& bucket : buckets) total += bucket.count;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile in 1..total (nearest-rank definition).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.5));
  uint64_t cumulative = 0;
  for (const Bucket& bucket : buckets) {
    cumulative += bucket.count;
    if (cumulative >= rank) {
      const double lower = static_cast<double>(BucketLowerNanos(bucket.index));
      const double upper = static_cast<double>(BucketUpperNanos(bucket.index));
      // A bucket's midpoint can lie outside the exact range actually seen.
      return std::min(std::max((lower + upper) * 0.5e-9, min_seconds),
                      max_seconds);
    }
  }
  return max_seconds;
}

HistogramSnapshot HistogramSnapshot::Merged(const HistogramSnapshot& a,
                                            const HistogramSnapshot& b) {
  HistogramSnapshot out;
  out.name = a.name.empty() ? b.name : a.name;
  out.count = a.count + b.count;
  out.sum_seconds = a.sum_seconds + b.sum_seconds;
  if (a.count == 0) {
    out.min_seconds = b.min_seconds;
    out.max_seconds = b.max_seconds;
  } else if (b.count == 0) {
    out.min_seconds = a.min_seconds;
    out.max_seconds = a.max_seconds;
  } else {
    out.min_seconds = std::min(a.min_seconds, b.min_seconds);
    out.max_seconds = std::max(a.max_seconds, b.max_seconds);
  }
  // Two-pointer merge over index-sorted bucket lists.
  size_t i = 0;
  size_t j = 0;
  while (i < a.buckets.size() || j < b.buckets.size()) {
    if (j >= b.buckets.size() ||
        (i < a.buckets.size() && a.buckets[i].index < b.buckets[j].index)) {
      out.buckets.push_back(a.buckets[i++]);
    } else if (i >= a.buckets.size() ||
               b.buckets[j].index < a.buckets[i].index) {
      out.buckets.push_back(b.buckets[j++]);
    } else {
      out.buckets.push_back(
          {a.buckets[i].index, a.buckets[i].count + b.buckets[j].count});
      ++i;
      ++j;
    }
  }
  out.p50_seconds = out.Percentile(0.50);
  out.p95_seconds = out.Percentile(0.95);
  out.p99_seconds = out.Percentile(0.99);
  return out;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Global() {
  static auto* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->Value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.push_back({name, gauge->Value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snapshot = histogram->Snapshot();
    snapshot.name = name;
    out.histograms.push_back(std::move(snapshot));
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String("kgacc-metrics-v1");
  writer.Key("counters").BeginArray();
  for (const auto& counter : snapshot.counters) {
    writer.BeginObject();
    writer.Key("name").String(counter.name);
    writer.Key("value").Uint(counter.value);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("gauges").BeginArray();
  for (const auto& gauge : snapshot.gauges) {
    writer.BeginObject();
    writer.Key("name").String(gauge.name);
    // JSON has no spelling for inf or nan (an unlimited budget gauge is
    // inf), so a non-finite gauge reads null.
    if (std::isfinite(gauge.value)) {
      writer.Key("value").Number(gauge.value);
    } else {
      writer.Key("value").Null();
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("histograms").BeginArray();
  for (const auto& histogram : snapshot.histograms) {
    writer.BeginObject();
    writer.Key("name").String(histogram.name);
    writer.Key("count").Uint(histogram.count);
    writer.Key("sum_seconds").Number(histogram.sum_seconds);
    writer.Key("min_seconds").Number(histogram.min_seconds);
    writer.Key("max_seconds").Number(histogram.max_seconds);
    writer.Key("p50_seconds").Number(histogram.p50_seconds);
    writer.Key("p95_seconds").Number(histogram.p95_seconds);
    writer.Key("p99_seconds").Number(histogram.p99_seconds);
    writer.Key("buckets").BeginArray();
    for (const auto& bucket : histogram.buckets) {
      writer.BeginObject();
      writer.Key("le_seconds")
          .Number(static_cast<double>(BucketUpperNanos(bucket.index)) * 1e-9);
      writer.Key("count").Uint(bucket.count);
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.TakeString();
}

Status WriteMetricsJson(const std::string& path,
                        const MetricsSnapshot& snapshot) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << MetricsToJson(snapshot) << '\n';
  if (!out.good()) return Status::IOError("error writing '" + path + "'");
  return Status::OK();
}

}  // namespace kgacc::obs
