// Machine-time microbenchmarks for the EvaluationEngine's annotation hot
// path: per-triple Annotate vs the batched AnnotateBatch fast path vs the
// sharded thread-pooled path, on the synthetic-oracle workload, plus a
// whole-campaign benchmark through the DesignRegistry.
//
// The batched path must be at least as fast as the per-triple path (it does
// strictly less hashing per triple); the sharded path pays thread hand-off
// and only wins with spare cores and large batches.
//
// BM_AnnotateBatchSweep is the crowd-scale sweep (batch size × thread
// count): it measures pure AnnotateBatch throughput with manual timing (the
// per-iteration cache Reset is excluded) and, when any sweep configuration
// ran, writes a kgacc-bench-v2 artifact (BENCH_annotate_sweep.json, into
// $KGACC_BENCH_JSON_DIR when set) with items/sec and the speedup of every
// thread count against the same batch's single-thread run. CI's bench-smoke
// job gates `annotate_sweep.largest_batch_speedup` with kgacc_trace_check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/design_registry.h"
#include "core/telemetry.h"
#include "kg/cluster_population.h"
#include "kg/generator.h"
#include "labels/annotator.h"
#include "labels/synthetic_oracle.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

struct Workload {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0x5eed};
  std::vector<TripleRef> refs;
};

/// A size-weighted stream of triple refs over a log-normal population — the
/// shape of an engine campaign's annotation requests (with some repeats, as
/// with-replacement designs produce).
Workload MakeWorkload(uint64_t num_refs) {
  Rng rng(1234);
  Workload out;
  std::vector<uint32_t> sizes =
      GenerateLogNormalSizes(200000, 1.55, 1.1, 5000, rng);
  for (size_t i = 0; i < sizes.size(); ++i) out.oracle.Append(0.9);
  out.population = ClusterPopulation(std::move(sizes));
  out.refs.reserve(num_refs);
  for (uint64_t i = 0; i < num_refs; ++i) {
    const uint64_t cluster = rng.UniformIndex(out.population.NumClusters());
    const uint64_t offset =
        rng.UniformIndex(out.population.ClusterSize(cluster));
    out.refs.push_back(TripleRef{cluster, offset});
  }
  return out;
}

void BM_AnnotatePerTriple(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  SimulatedAnnotator annotator(&workload.oracle, kCost);
  std::vector<uint8_t> labels(workload.refs.size());
  for (auto _ : state) {
    annotator.Reset();
    for (size_t i = 0; i < workload.refs.size(); ++i) {
      labels[i] = annotator.Annotate(workload.refs[i]) ? 1 : 0;
    }
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnnotatePerTriple)->Arg(4096)->Arg(65536)->Arg(262144);

void BM_AnnotateBatch(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  SimulatedAnnotator annotator(&workload.oracle, kCost);
  std::vector<uint8_t> labels(workload.refs.size());
  for (auto _ : state) {
    annotator.Reset();
    annotator.AnnotateBatch(std::span<const TripleRef>(workload.refs),
                            labels.data());
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnnotateBatch)->Arg(4096)->Arg(65536)->Arg(262144);

void BM_AnnotateBatchSharded(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  SimulatedAnnotator annotator(
      &workload.oracle, kCost,
      {.annotation_threads = static_cast<int>(state.range(1))});
  std::vector<uint8_t> labels(workload.refs.size());
  for (auto _ : state) {
    annotator.Reset();
    annotator.AnnotateBatch(std::span<const TripleRef>(workload.refs),
                            labels.data());
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnnotateBatchSharded)
    ->Args({65536, 2})
    ->Args({65536, 4})
    ->Args({262144, 4});

/// One sweep cell's measured throughput, keyed by (batch, threads).
std::map<std::pair<int64_t, int64_t>, double>& SweepRates() {
  static auto* rates = new std::map<std::pair<int64_t, int64_t>, double>();
  return *rates;
}

void BM_AnnotateBatchSweep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t threads = state.range(1);
  const Workload workload = MakeWorkload(batch);
  SimulatedAnnotator annotator(
      &workload.oracle, kCost,
      {.annotation_threads = static_cast<int>(threads)});
  std::vector<uint8_t> labels(workload.refs.size());
  double annotate_seconds = 0.0;
  uint64_t items = 0;
  for (auto _ : state) {
    annotator.Reset();
    WallTimer timer;
    annotator.AnnotateBatch(std::span<const TripleRef>(workload.refs),
                            labels.data());
    const double elapsed = timer.ElapsedSeconds();
    state.SetIterationTime(elapsed);
    annotate_seconds += elapsed;
    items += workload.refs.size();
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));
  if (annotate_seconds > 0.0) {
    SweepRates()[{batch, threads}] =
        static_cast<double>(items) / annotate_seconds;
  }
}
BENCHMARK(BM_AnnotateBatchSweep)
    ->ArgsProduct({{16384, 100000, 262144}, {1, 2, 4, 8}})
    ->UseManualTime();

}  // namespace

/// Writes the annotate_sweep artifact (kgacc-bench-v2) from the sweep cells
/// that ran (a --benchmark_filter selecting none of them writes nothing).
/// Its gated metric is the best multi-thread speedup at the largest batch:
/// small batches legitimately lose to thread hand-off on few-core runners,
/// and small-batch parallelism is not what the sharded path is for.
void WriteSweepArtifact() {
  const auto& rates = SweepRates();
  if (rates.empty()) return;
  BenchArtifact artifact("annotate_sweep");
  std::map<int64_t, double> best_speedup;  // batch -> best over threads > 1.
  for (const auto& [key, rate] : rates) {
    const auto& [batch, threads] = key;
    const auto single = rates.find({batch, int64_t{1}});
    const double speedup =
        single != rates.end() && single->second > 0.0 ? rate / single->second
                                                      : 0.0;
    if (threads > 1) {
      best_speedup[batch] = std::max(best_speedup[batch], speedup);
    }
    artifact.rows()
        .BeginObject()
        .Key("batch").Int(batch)
        .Key("threads").Int(threads)
        .Key("items_per_second").Number(rate)
        .Key("speedup_vs_1").Number(speedup)
        .EndObject();
  }
  if (!best_speedup.empty()) {
    artifact.SetMetric("largest_batch_speedup", best_speedup.rbegin()->second);
  }
  const std::string path = bench::ArtifactPath("BENCH_annotate_sweep.json");
  const Status written = artifact.Write(path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return;
  }
  std::printf("sweep artifact: %s (%zu configurations)\n", path.c_str(),
              rates.size());
}

namespace {

/// Median per-campaign times with metrics collection off/on, and the
/// median of their per-iteration ratios.
struct OverheadCells {
  double baseline_seconds = 0.0;
  double metrics_seconds = 0.0;
  double fraction = 0.0;
};

OverheadCells& Overhead() {
  static auto* cells = new OverheadCells();
  return *cells;
}

/// Runs one TWCS campaign end to end through the registry; returns its wall
/// time and adds the triples it annotated.
double TimeTwcsCampaign(const Workload& workload, uint64_t* triples) {
  EvaluationOptions options;
  options.seed = 7;
  SimulatedAnnotator annotator(&workload.oracle, kCost);
  WallTimer timer;
  const Result<EvaluationResult> run = DesignRegistry::Global().Run(
      "twcs", workload.population, &annotator, options);
  const double elapsed = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(run);
  *triples += run->ledger.triples_annotated;
  return elapsed;
}

void BM_EngineCampaign(benchmark::State& state) {
  // Each iteration runs the same TWCS campaign twice, once with metrics
  // collection off (the process default: the same sites, just the disabled
  // branch of each one) and once on (every phase span records to its
  // histogram and every counter site accumulates), alternating which goes
  // first, and keeps the ratio of the two. Host drift then lands on both
  // halves of a pair alike and cancels in its ratio; the median ratio is the
  // live instrumentation overhead that the metrics_overhead artifact reports
  // and CI budgets. (The fastest run of each variant would compare two
  // extremes from different moments of the run.)
  const Workload workload = MakeWorkload(1);
  uint64_t triples = 0;
  std::vector<double> off_seconds;
  std::vector<double> on_seconds;
  std::vector<double> ratios;
  obs::MetricsRegistry::Global().ResetValues();
  bool on_first = false;
  for (auto _ : state) {
    double seconds[2] = {0.0, 0.0};  // [metrics off, metrics on].
    for (const bool metrics : {on_first, !on_first}) {
      obs::EnableMetrics(metrics);
      seconds[metrics ? 1 : 0] = TimeTwcsCampaign(workload, &triples);
    }
    obs::EnableMetrics(false);
    on_first = !on_first;
    off_seconds.push_back(seconds[0]);
    on_seconds.push_back(seconds[1]);
    if (seconds[0] > 0.0) ratios.push_back(seconds[1] / seconds[0]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(triples));
  const auto median = [](std::vector<double>& values) {
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
  };
  if (!ratios.empty()) {
    Overhead() = OverheadCells{median(off_seconds), median(on_seconds),
                               median(ratios) - 1.0};
  }
}
BENCHMARK(BM_EngineCampaign);

void BM_EngineCampaignTraced(benchmark::State& state) {
  // The same campaign with a per-round TraceRecorder attached: the delta to
  // BM_EngineCampaign is the full telemetry overhead (should be noise — one
  // struct append per round, no extra sampling or hashing).
  const Workload workload = MakeWorkload(1);
  uint64_t triples = 0;
  for (auto _ : state) {
    TraceRecorder recorder;
    EvaluationOptions options;
    options.seed = 7;
    options.telemetry = &recorder;
    SimulatedAnnotator annotator(&workload.oracle, kCost);
    const Result<EvaluationResult> run = DesignRegistry::Global().Run(
        "twcs", workload.population, &annotator, options);
    benchmark::DoNotOptimize(run);
    benchmark::DoNotOptimize(recorder.campaigns().size());
    triples += run->ledger.triples_annotated;
  }
  state.SetItemsProcessed(static_cast<int64_t>(triples));
}
BENCHMARK(BM_EngineCampaignTraced);

}  // namespace

/// Writes the metrics_overhead artifact (kgacc-bench-v2) when
/// BM_EngineCampaign ran. CI gates `metrics_overhead.fraction`.
void WriteMetricsOverheadArtifact() {
  const OverheadCells& cells = Overhead();
  if (cells.baseline_seconds <= 0.0 || cells.metrics_seconds <= 0.0) return;
  const double overhead = cells.fraction;
  BenchArtifact artifact("metrics_overhead");
  artifact.SetMetric("baseline_seconds", cells.baseline_seconds);
  artifact.SetMetric("metrics_seconds", cells.metrics_seconds);
  artifact.SetMetric("fraction", overhead);
  const std::string path =
      bench::ArtifactPath("BENCH_metrics_overhead.json");
  const Status written = artifact.Write(path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return;
  }
  std::printf("metrics overhead artifact: %s (%.2f%%)\n", path.c_str(),
              overhead * 100.0);
}

}  // namespace kgacc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  kgacc::WriteSweepArtifact();
  kgacc::WriteMetricsOverheadArtifact();
  return 0;
}
