// Continuous accuracy monitoring of an evolving knowledge graph
// (paper Section 6): a base KG receives a stream of ingestion batches of
// varying quality; after each batch the monitor re-establishes a 5% MoE
// estimate, reusing previous annotations.
//
// Both incremental methods run side by side, each one IncrementalEvaluator
// (the campaigns behind the registry's "rs"/"ss" designs):
//   RS — weighted reservoir sampling (Algorithm 1): robust, stochastically
//        refreshes its sample;
//   SS — stratified incremental evaluation (Algorithm 2): cheapest, reuses
//        every annotation, one stratum per batch.
// A from-scratch baseline shows what not reusing anything would cost, and
// every campaign's per-round trajectory is captured through the telemetry
// sink and written as kg_monitor_trace.json (kgacc-trace-v1) — the feed a
// monitoring dashboard would consume.
//
// Run: ./build/example_evolving_kg_monitor

#include <cstdio>
#include <sstream>
#include <vector>

#include "kgaccuracy.h"

namespace {

using namespace kgacc;

/// The evolving substrate: append-only cluster population plus a synthetic
/// label stream whose quality we control per batch.
struct EvolvingStore {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{2027};
  double weighted_p = 0.0;

  std::pair<uint64_t, uint64_t> Ingest(uint64_t triples, double accuracy,
                                       Rng& rng) {
    const uint64_t first = population.NumClusters();
    std::vector<uint32_t> sizes =
        GenerateLogNormalSizes(std::max<uint64_t>(1, triples / 9), 0.94, 1.6,
                               5000, rng);
    ScaleSizesToTotal(&sizes, triples);
    for (uint32_t s : sizes) {
      population.Append(s);
      oracle.Append(accuracy);
      weighted_p += static_cast<double>(s) * accuracy;
    }
    return {first, population.NumClusters() - first};
  }

  double TrueAccuracy() const {
    return weighted_p / static_cast<double>(population.TotalTriples());
  }
};

}  // namespace

int main() {
  using namespace kgacc;
  const CostModel cost_model{.c1_seconds = 45.0, .c2_seconds = 25.0};
  Rng rng(314159);

  EvolvingStore store;
  store.Ingest(/*triples=*/500000, /*accuracy=*/0.92, rng);  // the base KG.

  EvaluationOptions options;
  options.seed = 11;
  TraceRecorder recorder;  // per-round trajectories of every campaign.
  options.telemetry = &recorder;

  SimulatedAnnotator rs_annotator(&store.oracle, cost_model);
  SimulatedAnnotator ss_annotator(&store.oracle, cost_model);
  ReservoirIncrementalEvaluator rs(&store.population, &rs_annotator, options);
  StratifiedIncrementalEvaluator ss(&store.population, &ss_annotator, options);
  SnapshotBaselineEvaluator baseline(&store.oracle, cost_model, options);

  std::printf("initial evaluation of the base KG (500K triples)...\n");
  const EvaluationResult rs0 = rs.Initialize();
  const EvaluationResult ss0 = ss.Initialize();
  std::printf("  RS: %s (MoE %.1f%%), %s\n",
              FormatPercent(rs0.estimate.mean, 1).c_str(), rs0.moe * 100.0,
              FormatDuration(rs0.annotation_seconds).c_str());
  std::printf("  SS: %s (MoE %.1f%%), %s\n",
              FormatPercent(ss0.estimate.mean, 1).c_str(), ss0.moe * 100.0,
              FormatDuration(ss0.annotation_seconds).c_str());

  // A stream of ingestion batches; batch 4 is a bad crawl (40% accurate) —
  // the monitor must catch the drop.
  struct Batch {
    uint64_t triples;
    double accuracy;
    const char* note;
  };
  const std::vector<Batch> stream = {
      {50000, 0.93, "regular ingestion"},
      {60000, 0.90, "regular ingestion"},
      {80000, 0.91, "regular ingestion"},
      {120000, 0.40, "BAD CRAWL (label quality collapsed)"},
      {50000, 0.92, "regular ingestion"},
      {60000, 0.91, "regular ingestion"},
  };

  std::printf("\n%5s %11s %11s %11s | %11s %11s %12s\n", "batch", "truth",
              "RS est", "SS est", "RS cost", "SS cost", "scratch cost");
  std::printf("%s\n", std::string(92, '-').c_str());
  double rs_total = rs0.annotation_seconds, ss_total = ss0.annotation_seconds;
  double baseline_total = 0.0;
  for (size_t b = 0; b < stream.size(); ++b) {
    const auto [first, count] =
        store.Ingest(stream[b].triples, stream[b].accuracy, rng);
    const EvaluationResult r1 = rs.ApplyUpdate(first, count);
    const EvaluationResult r2 = ss.ApplyUpdate(first, count);
    const EvaluationResult r3 = baseline.Evaluate(store.population);
    rs_total += r1.annotation_seconds;
    ss_total += r2.annotation_seconds;
    baseline_total += r3.annotation_seconds;
    std::printf("%5zu %10.1f%% %10.1f%% %10.1f%% | %11s %11s %12s   %s\n",
                b + 1, store.TrueAccuracy() * 100.0, r1.estimate.mean * 100.0,
                r2.estimate.mean * 100.0,
                FormatDuration(r1.annotation_seconds).c_str(),
                FormatDuration(r2.annotation_seconds).c_str(),
                FormatDuration(r3.annotation_seconds).c_str(), stream[b].note);
  }

  std::printf("\ncumulative monitoring cost: RS %s | SS %s | from-scratch %s\n",
              FormatDuration(rs_total).c_str(), FormatDuration(ss_total).c_str(),
              FormatDuration(baseline_total).c_str());

  // The dashboard feed: every campaign above, one JSON document.
  if (const Status written =
          WriteTraceJson("kg_monitor_trace.json", recorder.campaigns());
      !written.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("per-round trajectories: kg_monitor_trace.json "
              "(%zu campaigns)\n", recorder.campaigns().size());

  // --- Surviving a restart: persist the SS state and resume. ----------------
  // A real monitor checkpoints after every batch; here we round-trip through
  // a string and show the restored evaluator carries the exact estimate and
  // keeps serving updates without re-annotating anything.
  std::stringstream checkpoint;
  if (const Status saved = SaveStratifiedState(ss, checkpoint); !saved.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  SimulatedAnnotator resumed_annotator(&store.oracle, cost_model);
  // The trace file is already written; don't record the post-restart
  // campaigns into a recorder nobody flushes again.
  EvaluationOptions resumed_options = options;
  resumed_options.telemetry = nullptr;
  StratifiedIncrementalEvaluator resumed(&store.population, &resumed_annotator,
                                         resumed_options);
  if (const Status restored = RestoreStratifiedState(checkpoint, &resumed);
      !restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", restored.ToString().c_str());
    return 1;
  }
  std::printf("\nafter restart: restored estimate %s (live evaluator: %s), "
              "checkpoint size %zu bytes\n",
              FormatPercent(resumed.CurrentEstimate().mean, 2).c_str(),
              FormatPercent(ss.CurrentEstimate().mean, 2).c_str(),
              checkpoint.str().size());
  const auto [first, count] = store.Ingest(40000, 0.9, rng);
  const EvaluationResult post = resumed.ApplyUpdate(first, count);
  std::printf("first post-restart batch: estimate %s, new cost %s "
              "(old annotations reused)\n",
              FormatPercent(post.estimate.mean, 1).c_str(),
              FormatDuration(post.annotation_seconds).c_str());

  std::printf(
      "\nGuideline (paper Section 7.3): prefer SS when update history is "
      "tracked and batches are\nsubstantial; prefer RS when updates are "
      "small/frequent and robustness to a bad initial\nsample matters more "
      "than the last bit of cost.\n");
  return 0;
}
