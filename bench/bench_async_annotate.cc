// bench_async_annotate — wall-clock speedup of the asynchronous annotation
// bridge over the synchronous latency facade.
//
// Runs the same fixed evaluation campaign twice per configuration — once
// through MockLatencyAnnotator (every simulated latency elapses serially on
// the caller thread) and once through AsyncAnnotator (latencies elapse
// concurrently inside a bounded window while the pipelined engine samples
// ahead) — and reports the speedup across a latency x max_concurrent matrix.
// Every async run is checked bit-identical to its synchronous baseline:
// result fields, ledger and the full per-round trace must match exactly
// (machine_seconds excluded — it is the quantity being traded).
//
// The workload is sized for CI: --max-units triples through a
// never-converging SRS campaign, so both paths annotate exactly the same
// set. At the default 128 units a 50 ms mean latency costs ~6.4 s
// synchronously and ~0.8 s with a window of 8.
//
// Writes BENCH_async_annotate.json (a kgacc-bench-v2 artifact). Its
// async_annotate.gated_speedup metric, which CI gates, is the best speedup
// at the matrix's largest non-zero latency over windows of at least 8 (the
// acceptance configuration: window-1 rows are the no-overlap control and
// zero-latency rows measure pure bridge overhead); it is absent when no
// cell qualifies. Exits non-zero when any cell diverges.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/design_registry.h"
#include "core/telemetry.h"
#include "datasets/registry.h"
#include "labels/annotator_spec.h"
#include "labels/async_annotator.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace kgacc {
namespace {

constexpr const char* kUsage = R"(bench_async_annotate — async annotation speedup matrix

  --latencies-ms A,B,..   mean simulated latencies to sweep (ms) [0,5,50]
  --concurrency A,B,..    max_concurrent window sizes to sweep   [1,8,64]
  --dataset NAME          dataset (see kgacc_eval --list-datasets) [nell]
  --design NAME           registered design                      [srs]
  --max-units N           triples annotated per campaign         [128]
  --batch-units N         units drawn per engine round           [32]
  --seed S                campaign + dataset seed                [20190923]
  --out FILE              artifact path (default: BENCH_async_annotate.json
                          under $KGACC_BENCH_JSON_DIR)
)";

struct RunOutcome {
  EvaluationResult result;
  std::vector<CampaignTrace> traces;
  double wall_seconds = 0.0;
  size_t max_in_flight = 0;
};

/// Exact comparison of everything the determinism contract covers.
/// machine_seconds is deliberately excluded: overlapping latency with
/// sampling is the whole point, so machine time legitimately differs.
bool Identical(const RunOutcome& sync, const RunOutcome& async_run) {
  const EvaluationResult& a = sync.result;
  const EvaluationResult& b = async_run.result;
  if (a.design != b.design || a.converged != b.converged ||
      a.rounds != b.rounds || a.suspended != b.suspended ||
      a.estimate.mean != b.estimate.mean ||
      a.estimate.variance_of_mean != b.estimate.variance_of_mean ||
      a.estimate.num_units != b.estimate.num_units || a.moe != b.moe ||
      a.ledger.entities_identified != b.ledger.entities_identified ||
      a.ledger.triples_annotated != b.ledger.triples_annotated ||
      a.annotation_seconds != b.annotation_seconds) {
    return false;
  }
  if (sync.traces.size() != async_run.traces.size()) return false;
  for (size_t i = 0; i < sync.traces.size(); ++i) {
    const CampaignTrace& s = sync.traces[i];
    const CampaignTrace& t = async_run.traces[i];
    if (s.design != t.design || s.label != t.label ||
        s.converged != t.converged || s.rounds.size() != t.rounds.size()) {
      return false;
    }
    for (size_t r = 0; r < s.rounds.size(); ++r) {
      const CampaignRound& x = s.rounds[r];
      const CampaignRound& y = t.rounds[r];
      if (x.round != y.round || x.cost_seconds != y.cost_seconds ||
          x.units != y.units || x.estimate != y.estimate ||
          x.ci_lower != y.ci_lower || x.ci_upper != y.ci_upper ||
          x.moe != y.moe || x.triples_annotated != y.triples_annotated ||
          x.entities_identified != y.entities_identified) {
        return false;
      }
    }
  }
  return true;
}

Result<std::vector<uint64_t>> ParseList(const std::string& csv,
                                        const char* flag) {
  std::vector<uint64_t> values;
  for (const std::string_view piece : SplitString(csv, ',')) {
    const std::string item(StripWhitespace(piece));
    if (item.empty()) continue;
    uint64_t parsed = 0;
    if (!ParseUint64(item.c_str(), &parsed)) {
      return Status::InvalidArgument(
          StrFormat("--%s: '%s' is not a number", flag, item.c_str()));
    }
    values.push_back(parsed);
  }
  if (values.empty()) {
    return Status::InvalidArgument(StrFormat("--%s: empty list", flag));
  }
  return values;
}

int Main(int argc, char** argv) {
  Result<FlagParser> flags_or = FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n", flags_or.status().message().c_str());
    return 2;
  }
  const FlagParser& flags = std::move(flags_or).value();
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const Status valid =
      flags.Validate({"latencies-ms", "concurrency", "dataset", "design",
                      "max-units", "batch-units", "seed", "out", "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n%s", valid.message().c_str(), kUsage);
    return 2;
  }

  const std::string latencies_csv = flags.GetString("latencies-ms", "0,5,50");
  Result<std::vector<uint64_t>> latencies =
      ParseList(latencies_csv, "latencies-ms");
  Result<std::vector<uint64_t>> windows =
      ParseList(flags.GetString("concurrency", "1,8,64"), "concurrency");
  if (!latencies.ok() || !windows.ok()) {
    const Status& bad = !latencies.ok() ? latencies.status() : windows.status();
    std::fprintf(stderr, "error: %s\n", bad.message().c_str());
    return 2;
  }
  const std::string dataset_name = flags.GetString("dataset", "nell");
  const std::string design = flags.GetString("design", "srs");
  const Result<uint64_t> max_units_flag = flags.GetUint64("max-units", 128);
  const Result<uint64_t> batch_units_flag = flags.GetUint64("batch-units", 32);
  const Result<uint64_t> seed_flag = flags.GetUint64("seed", bench::Seed());
  for (const Status& bad : {max_units_flag.status(), batch_units_flag.status(),
                            seed_flag.status()}) {
    if (!bad.ok()) {
      std::fprintf(stderr, "error: %s\n", bad.message().c_str());
      return 2;
    }
  }
  const uint64_t max_units = *max_units_flag;
  const uint64_t batch_units = *batch_units_flag;
  const uint64_t seed = *seed_flag;
  const std::string out_path =
      flags.GetString("out", bench::ArtifactPath("BENCH_async_annotate.json"));

  Result<Dataset> dataset = MakeDatasetByName(dataset_name, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().message().c_str());
    return 1;
  }
  const KgView& view = dataset->View();

  EvaluationOptions options;
  // A target no campaign reaches pins the workload to exactly max_units
  // sampling units; both schedules then annotate the same triple set and
  // the wall-clock ratio is a pure latency-overlap measurement.
  options.moe_target = 1e-9;
  options.max_units = max_units;
  options.batch_units = batch_units;
  options.seed = seed;

  // One campaign through either facade over a fresh backend (fresh caches,
  // fresh latency request set).
  auto run_campaign = [&](uint64_t latency_ms, uint64_t window,
                          bool async_path) -> Result<RunOutcome> {
    const AnnotatorSpec spec{.seed = seed,
                             .async = async_path,
                             .latency_ms = static_cast<double>(latency_ms),
                             .max_concurrent = window};
    KGACC_ASSIGN_OR_RETURN(const std::unique_ptr<Annotator> annotator,
                           MakeAnnotator(spec, dataset->oracle.get()));
    const auto* bridge = dynamic_cast<const AsyncAnnotator*>(annotator.get());
    TraceRecorder recorder;
    EvaluationOptions run_options = options;
    run_options.telemetry = &recorder;
    WallTimer timer;
    Result<EvaluationResult> run = DesignRegistry::Global().Run(
        design, view, annotator.get(), run_options);
    RunOutcome outcome;
    outcome.wall_seconds = timer.ElapsedSeconds();
    KGACC_ASSIGN_OR_RETURN(outcome.result, std::move(run));
    outcome.traces = recorder.campaigns();
    if (bridge != nullptr) {
      outcome.max_in_flight = bridge->queue().MaxInFlightObserved();
    }
    return outcome;
  };

  bench::Banner(StrFormat("async annotation speedup — %s/%s, %llu units",
                          dataset_name.c_str(), design.c_str(),
                          static_cast<unsigned long long>(max_units)));
  std::printf("%10s %14s %12s %13s %9s %12s %10s\n", "latency_ms",
              "max_concurrent", "sync_s", "async_s", "speedup", "max_inflight",
              "identical");
  bench::Rule();

  BenchArtifact artifact("async_annotate");
  artifact.config()
      .Key("dataset").String(dataset_name)
      .Key("design").String(design)
      .Key("max_units").Uint(max_units)
      .Key("batch_units").Uint(batch_units)
      .Key("seed").Uint(seed);
  const uint64_t max_latency =
      *std::max_element(latencies->begin(), latencies->end());
  double gated_speedup = -1.0;

  bool all_identical = true;
  for (const uint64_t latency_ms : *latencies) {
    Result<RunOutcome> sync = run_campaign(latency_ms, 1, false);
    if (!sync.ok()) {
      std::fprintf(stderr, "error: sync run (latency %llums): %s\n",
                   static_cast<unsigned long long>(latency_ms),
                   sync.status().message().c_str());
      return 1;
    }
    for (const uint64_t window : *windows) {
      Result<RunOutcome> async_run = run_campaign(latency_ms, window, true);
      if (!async_run.ok()) {
        std::fprintf(stderr, "error: async run (latency %llums, mc %llu): %s\n",
                     static_cast<unsigned long long>(latency_ms),
                     static_cast<unsigned long long>(window),
                     async_run.status().message().c_str());
        return 1;
      }
      const bool identical = Identical(*sync, *async_run);
      all_identical = all_identical && identical;
      const double speedup =
          async_run->wall_seconds > 0.0
              ? sync->wall_seconds / async_run->wall_seconds
              : 0.0;
      std::printf("%10llu %14llu %12.3f %13.3f %8.2fx %12zu %10s\n",
                  static_cast<unsigned long long>(latency_ms),
                  static_cast<unsigned long long>(window), sync->wall_seconds,
                  async_run->wall_seconds, speedup,
                  async_run->max_in_flight, identical ? "yes" : "NO");
      if (latency_ms == max_latency && latency_ms > 0 && window >= 8) {
        gated_speedup = std::max(gated_speedup, speedup);
      }
      artifact.rows()
          .BeginObject()
          .Key("latency_ms").Number(static_cast<double>(latency_ms))
          .Key("max_concurrent").Uint(window)
          .Key("sync_seconds").Number(sync->wall_seconds)
          .Key("async_seconds").Number(async_run->wall_seconds)
          .Key("speedup").Number(speedup)
          .Key("max_in_flight").Uint(async_run->max_in_flight)
          .Key("identical").Bool(identical)
          .EndObject();
    }
  }
  if (gated_speedup >= 0.0) {
    artifact.SetMetric("gated_speedup", gated_speedup);
  }
  const Status written = artifact.Write(out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("-> %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "error: async results diverged from the synchronous "
                 "baseline (determinism contract violated)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kgacc

int main(int argc, char** argv) { return kgacc::Main(argc, argv); }
