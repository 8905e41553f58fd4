// kgacc_eval — command-line KG accuracy evaluation.
//
// Evaluate a built-in benchmark dataset:
//   kgacc_eval --dataset nell --design twcs --moe 0.05 --confidence 0.95
//
// Evaluate your own TSV graph with gold labels (4th column, 0/1):
//   kgacc_eval --input graph.tsv --design twcs
//
// Other modes:
//   --design srs|rcs|wcs|twcs     sampling design (default twcs)
//   --strata H                    size-stratified TWCS with H strata
//   --per-predicate               per-predicate accuracy (TSV/materialized)
//   --m N                         TWCS second-stage size (default: auto)
//   --annotators K --noise P      majority vote of K noisy annotators
//   --wilson                      Wilson CI for the SRS stopping rule
//   --seed S, --c1 S, --c2 S      randomness / cost-model overrides
//   --list-datasets               print known dataset names

#include <cstdio>
#include <memory>

#include "kgaccuracy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace kgacc {
namespace {

constexpr const char* kUsage = R"(kgacc_eval — knowledge graph accuracy evaluation

Modes (choose one input):
  --dataset NAME      built-in benchmark dataset (see --list-datasets)
  --input FILE.tsv    your graph: subject<TAB>predicate<TAB>object<TAB>label
                      (label 0/1 required: it is the gold truth the simulated
                       annotator consults)
  --graph-store FILE.kgstore
                      memory-map a columnar store built by kgacc_store; opens
                      in O(1) regardless of size and serves triples zero-copy
                      (must embed gold labels)

Evaluation:
  --design D          any registered design name        [twcs]
                      (the registered set is printed below and by
                       --list-designs; unknown names error with the same
                       listing, sourced from the DesignRegistry)
  --strata H          stratum count for twcs+strat, at most 256;
                      passing H > 1 selects twcs+strat (conflicts with
                      any other explicit --design)         [4]
  --per-predicate     per-predicate accuracy report (materialized graphs)
  --moe E             margin-of-error target            [0.05]
  --confidence C      confidence level                  [0.95]
  --m N               TWCS second-stage size            [auto]
  --pilot-size N      twcs+pilot: clusters annotated by the pilot
                      before the Eq 12 search           [max(min-units, 30)]
  --min-units N       CLT floor on sampling units       [30]
  --wilson            Wilson CI in the SRS stopping rule
  --trace FILE.json   write the per-round campaign trace (estimate, CI
                      bounds, cumulative cost) as kgacc-trace-v1 JSON
  --batch-units N     sampling units drawn per engine round      [10]
                      (larger rounds feed the parallel annotation path
                       bigger batches — results depend on the round size,
                       not on thread count)

Observability (runtime metrics/profiling; never changes results):
  --metrics FILE.json       write counters + latency histograms collected
                            during the run as kgacc-metrics-v1 JSON
  --chrome-trace FILE.json  record phase/worker spans and export them in
                            Chrome trace_event format (load in Perfetto or
                            chrome://tracing)

Annotation:
  --annotators K          majority vote of K annotators     [1]
  --noise P               per-annotator label flip rate     [0]
  --annotation-threads N  sharded batch-annotation threads  [0]
                          (applies to the single annotator and to
                           --annotators pools; results are bit-identical
                           for every N)
  --c1 SECONDS            entity identification cost        [45]
  --c2 SECONDS            relationship validation cost      [25]

Asynchronous annotation (simulated latency; results are bit-identical to
the synchronous annotator — only wall-clock time changes):
  --async-annotator         route annotation through the completion-queue
                            bridge: the engine samples round k+1 while round
                            k's labels are in flight
  --annotator-latency-ms L  mean simulated latency per first-seen triple,
                            at most 10000, drawn per triple from a
                            deterministic hash stream (seeded by --seed);
                            without --async-annotator it is waited out
                            synchronously                         [0]
  --max-concurrent N        bounded in-flight annotation window   [8]

Every flag may also be spelled with underscores (--batch_units).

Misc: --seed S [42], --list-datasets, --list-designs, --help
)";

/// Flushes the --metrics / --chrome-trace artifacts (if requested) and
/// reports them on stdout. Returns 0, or 1 on a write error.
int WriteObsArtifacts(const std::string& metrics_path,
                      const std::string& chrome_trace_path) {
  if (!metrics_path.empty()) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    const Status written = obs::WriteMetricsJson(metrics_path, snapshot);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("metrics: %s (%zu counters, %zu gauges, %zu histograms)\n",
                metrics_path.c_str(), snapshot.counters.size(),
                snapshot.gauges.size(), snapshot.histograms.size());
  }
  if (!chrome_trace_path.empty()) {
    obs::TraceSession::Stop();
    const Status written = obs::TraceSession::WriteJson(chrome_trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("chrome trace: %s (%llu events)\n", chrome_trace_path.c_str(),
                static_cast<unsigned long long>(obs::TraceSession::EventCount()));
  }
  return 0;
}

/// Reads the evaluation and annotation flags over the structs' defaults.
/// A malformed value is an error naming its flag; ranges are left to
/// CheckEvaluationOptions and CheckAnnotatorSpec.
Status ReadConfig(const FlagParser& flags, EvaluationOptions* options,
                  AnnotatorSpec* spec) {
  KGACC_ASSIGN_OR_RETURN(options->moe_target,
                         flags.GetDouble("moe", options->moe_target));
  KGACC_ASSIGN_OR_RETURN(options->confidence,
                         flags.GetDouble("confidence", options->confidence));
  KGACC_ASSIGN_OR_RETURN(options->m, flags.GetUint64("m", options->m));
  KGACC_ASSIGN_OR_RETURN(options->min_units,
                         flags.GetUint64("min-units", options->min_units));
  KGACC_ASSIGN_OR_RETURN(options->pilot_size,
                         flags.GetUint64("pilot-size", options->pilot_size));
  KGACC_ASSIGN_OR_RETURN(options->batch_units,
                         flags.GetUint64("batch-units", options->batch_units));
  KGACC_ASSIGN_OR_RETURN(options->seed, flags.GetUint64("seed", options->seed));
  KGACC_ASSIGN_OR_RETURN(options->num_strata,
                         flags.GetUint64("strata", options->num_strata));
  if (flags.GetBool("wilson", false)) options->srs_ci = CiMethod::kWilson;

  KGACC_ASSIGN_OR_RETURN(spec->annotators,
                         flags.GetUint64("annotators", spec->annotators));
  KGACC_ASSIGN_OR_RETURN(spec->noise_rate,
                         flags.GetDouble("noise", spec->noise_rate));
  spec->seed = options->seed;
  KGACC_ASSIGN_OR_RETURN(
      spec->annotation_threads,
      flags.GetUint64("annotation-threads", spec->annotation_threads));
  KGACC_ASSIGN_OR_RETURN(spec->c1_seconds,
                         flags.GetDouble("c1", spec->c1_seconds));
  KGACC_ASSIGN_OR_RETURN(spec->c2_seconds,
                         flags.GetDouble("c2", spec->c2_seconds));
  spec->async = flags.GetBool("async-annotator", false);
  KGACC_ASSIGN_OR_RETURN(
      spec->latency_ms,
      flags.GetDouble("annotator-latency-ms", spec->latency_ms));
  KGACC_ASSIGN_OR_RETURN(
      spec->max_concurrent,
      flags.GetUint64("max-concurrent", spec->max_concurrent));
  // Checked before the graph is built, which can take seconds.
  KGACC_RETURN_IF_ERROR(CheckEvaluationOptions(*options));
  return CheckAnnotatorSpec(*spec);
}

/// The graph the input flags name: a built-in dataset, a gold-labeled TSV
/// file or a graph store, opened as the daemon's load-graph opens it.
Result<Dataset> OpenInput(const FlagParser& flags, uint64_t seed) {
  if (flags.Has("dataset")) {
    return MakeDatasetByName(flags.GetString("dataset", ""), seed);
  }
  if (flags.Has("input")) return LoadTsvDataset(flags.GetString("input", ""));
  if (flags.Has("graph-store")) {
    return LoadKgstoreDataset(flags.GetString("graph-store", ""));
  }
  return Status::InvalidArgument(
      "pass --dataset, --input or --graph-store (see --help)");
}

int RunEval(const FlagParser& flags) {
  EvaluationOptions options;
  AnnotatorSpec spec;
  if (const Status config = ReadConfig(flags, &options, &spec); !config.ok()) {
    std::fprintf(stderr, "error: %s\n", config.message().c_str());
    return 1;
  }

  // --- Observability (enabled before loading so KG timings are captured). ----
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string chrome_trace_path = flags.GetString("chrome-trace", "");
  if (!metrics_path.empty()) obs::EnableMetrics(true);
  if (!chrome_trace_path.empty()) obs::TraceSession::Start();

  // --- Input. ----------------------------------------------------------------
  Result<Dataset> opened = OpenInput(flags, options.seed);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const Dataset dataset = std::move(opened).value();

  const std::string trace_path = flags.GetString("trace", "");
  TraceRecorder recorder;
  if (!trace_path.empty()) options.telemetry = &recorder;

  Result<std::unique_ptr<Annotator>> made_annotator =
      MakeAnnotator(spec, dataset.oracle.get());
  if (!made_annotator.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 made_annotator.status().message().c_str());
    return 1;
  }
  const std::unique_ptr<Annotator> annotator =
      std::move(made_annotator).value();

  const KgView& view = dataset.View();
  std::printf("graph: %s — %llu entities, %llu triples (avg cluster %.1f)\n",
              dataset.name.c_str(),
              static_cast<unsigned long long>(view.NumClusters()),
              static_cast<unsigned long long>(view.TotalTriples()),
              view.AverageClusterSize());

  // --- Per-predicate mode. ---------------------------------------------------
  if (flags.GetBool("per-predicate", false)) {
    const TripleView* triples = dataset.Triples();
    if (triples == nullptr) {
      std::fprintf(stderr,
                   "error: --per-predicate needs addressable triples "
                   "(--input, --graph-store, or the nell/yago datasets)\n");
      return 1;
    }
    GroupedEvaluator evaluator(*triples, annotator.get(), options);
    const auto results = evaluator.EvaluatePerPredicate();
    std::printf("%-28s %10s %12s %8s %10s\n", "predicate", "triples",
                "accuracy", "MoE", "cost");
    for (const auto& result : results) {
      const std::string name =
          dataset.symbols != nullptr ? dataset.symbols->Name(result.group)
          : dataset.mapped != nullptr && dataset.mapped->has_symbols()
              ? std::string(dataset.mapped->SymbolName(result.group))
              : StrFormat("p%u", result.group);
      std::printf("%-28s %10llu %11.1f%% %7.1f%% %10s\n", name.c_str(),
                  static_cast<unsigned long long>(result.population_triples),
                  result.evaluation.estimate.mean * 100.0,
                  result.evaluation.moe * 100.0,
                  FormatDuration(result.evaluation.annotation_seconds).c_str());
    }
    std::printf("total annotation bill: %s\n",
                FormatDuration(annotator->ElapsedSeconds()).c_str());
    if (!trace_path.empty()) {
      const Status written = WriteTraceJson(trace_path, recorder.campaigns());
      if (!written.ok()) {
        std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
        return 1;
      }
      std::printf("trace: %s (%llu campaigns, one per predicate)\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(recorder.campaigns().size()));
    }
    return WriteObsArtifacts(metrics_path, chrome_trace_path);
  }

  // --- Whole-graph evaluation (design resolved via the registry). ------------
  std::string design = flags.GetString("design", "twcs");
  if (flags.Has("strata") && options.num_strata > 1) {
    if (!flags.Has("design")) {
      design = "twcs+strat";
    } else if (design != "twcs+strat") {
      std::fprintf(stderr,
                   "error: --strata %llu conflicts with --design %s (strata "
                   "only apply to twcs+strat)\n",
                   static_cast<unsigned long long>(options.num_strata),
                   design.c_str());
      return 1;
    }
  }
  Result<EvaluationResult> run = DesignRegistry::Global().Run(
      design, view, annotator.get(), options);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const EvaluationResult result = std::move(run).value();

  if (!trace_path.empty()) {
    const Status written = WriteTraceJson(trace_path, recorder.campaigns());
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    uint64_t rounds = 0;
    for (const CampaignTrace& trace : recorder.campaigns()) {
      rounds += trace.rounds.size();
    }
    std::printf("trace: %s (%llu campaigns, %llu rounds)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(recorder.campaigns().size()),
                static_cast<unsigned long long>(rounds));
  }

  std::printf("design: %s%s\n", result.design.c_str(),
              spec.annotators > 1
                  ? StrFormat(" (majority of %llu annotators)",
                              static_cast<unsigned long long>(spec.annotators))
                        .c_str()
                  : "");
  // KGEval infers labels instead of sampling them, so it has no interval and
  // no budget that would make it converge.
  const bool no_guarantee = design == "kgeval";
  if (no_guarantee) {
    std::printf("estimated accuracy: %s (no interval: KGEval gives no "
                "sampling guarantee)\n",
                FormatPercent(result.estimate.mean, 2).c_str());
  } else {
    std::printf("estimated accuracy: %s, %s%% CI [%s, %s] (MoE %.2f%%)\n",
                FormatPercent(result.estimate.mean, 2).c_str(),
                StrFormat("%.0f", options.confidence * 100).c_str(),
                FormatPercent(result.estimate.CiLower(options.Alpha()), 2)
                    .c_str(),
                FormatPercent(result.estimate.CiUpper(options.Alpha()), 2)
                    .c_str(),
                result.moe * 100.0);
  }
  const char* converged = result.converged ? "yes"
                          : no_guarantee   ? "no"
                                           : "NO — raise budget or loosen target";
  std::printf("sampling units: %llu (%llu rounds); converged: %s\n",
              static_cast<unsigned long long>(result.estimate.num_units),
              static_cast<unsigned long long>(result.rounds), converged);
  std::printf("annotation: %llu entities, %llu triples -> %s\n",
              static_cast<unsigned long long>(result.ledger.entities_identified),
              static_cast<unsigned long long>(result.ledger.triples_annotated),
              FormatDuration(result.annotation_seconds).c_str());
  if (const int obs_status = WriteObsArtifacts(metrics_path, chrome_trace_path);
      obs_status != 0) {
    return obs_status;
  }
  return result.converged ? 0 : 2;
}

}  // namespace
}  // namespace kgacc

int main(int argc, char** argv) {
  using namespace kgacc;
  Result<FlagParser> parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const FlagParser& flags = *parsed;
  const Status valid = flags.Validate(
      {"dataset", "input", "graph-store", "design", "strata", "per-predicate",
       "moe", "confidence", "m", "pilot-size", "min-units", "wilson", "trace",
       "batch-units", "metrics", "chrome-trace", "annotators", "noise",
       "annotation-threads", "c1", "c2", "seed", "async-annotator",
       "annotator-latency-ms", "max-concurrent", "list-datasets",
       "list-designs", "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s (see --help)\n", valid.message().c_str());
    return 1;
  }
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    // The design listing comes from the registry so this text can never
    // drift from what --design actually accepts.
    std::printf("\nRegistered designs:\n");
    const DesignRegistry& registry = DesignRegistry::Global();
    for (const std::string& name : registry.Names()) {
      std::printf("  %-12s %s\n", name.c_str(),
                  registry.Description(name).c_str());
    }
    return 0;
  }
  if (flags.GetBool("list-datasets", false)) {
    for (const std::string& name : KnownDatasetNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (flags.GetBool("list-designs", false)) {
    const DesignRegistry& registry = DesignRegistry::Global();
    for (const std::string& name : registry.Names()) {
      std::printf("%-12s %s\n", name.c_str(),
                  registry.Description(name).c_str());
    }
    return 0;
  }
  return RunEval(flags);
}
