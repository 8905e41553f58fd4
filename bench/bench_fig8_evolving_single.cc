// Reproduces Figure 8: incremental evaluation on an evolving KG with a
// single update batch.
//   (1) evaluation time vs update size (130K..796K triples, update accuracy
//       90%) for Baseline (re-evaluate from scratch), RS (reservoir) and SS
//       (stratified);
//   (2) evaluation time vs update accuracy (20%..80%) at 796K triples.
//
// Setup mirrors Section 7.3: the base KG is a 50%-of-MOVIE-sized population
// with REM labels at 90% accuracy; updates arrive as independent clusters.
// RS and SS run their campaigns through the IncrementalEvaluator steps —
// the same campaigns as the registry's "rs"/"ss" designs.
//
// Machine-readable output: the per-round campaign traces of each cell's
// first trial (initialize + update, all three methods) are written through
// the JSON telemetry sink as BENCH_fig8_evolving_single.json
// (kgacc-trace-v1; destination directory via KGACC_BENCH_JSON_DIR).
//
// Paper shape: Baseline >> RS > SS; RS grows with update size; SS is nearly
// flat in update size but peaks when update accuracy nears 50%.

#include <cstdio>

#include "bench_util.h"
#include "core/reservoir_incremental.h"
#include "core/snapshot_baseline.h"
#include "core/stratified_incremental.h"
#include "core/telemetry.h"
#include "kg/cluster_population.h"
#include "kg/generator.h"
#include "labels/synthetic_oracle.h"
#include "labels/annotator.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};
constexpr uint64_t kBaseClusters = 144385;  // ~50% of MOVIE's entities.
constexpr double kBaseAccuracy = 0.9;

struct Evolving {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0};
  double weighted_p_sum = 0.0;

  void Append(const std::vector<uint32_t>& sizes, double accuracy) {
    for (uint32_t s : sizes) {
      population.Append(s);
      oracle.Append(accuracy);
      weighted_p_sum += static_cast<double>(s) * accuracy;
    }
  }
  double ExpectedAccuracy() const {
    return weighted_p_sum / static_cast<double>(population.TotalTriples());
  }
};

std::vector<uint32_t> MovieLikeSizes(uint64_t total_triples, Rng& rng) {
  const uint64_t clusters =
      std::max<uint64_t>(1, total_triples / 9);  // MOVIE's ~9 avg size.
  std::vector<uint32_t> sizes =
      GenerateLogNormalSizes(clusters, 0.94, 1.6, 5000, rng);
  ScaleSizesToTotal(&sizes, total_triples);
  return sizes;
}

struct Cell {
  RunningStats hours;
  RunningStats estimate;
};

/// One experiment cell: applies one update batch and measures the update
/// evaluation cost per method. The first trial's campaigns stream into
/// `recorder` (label-prefixed with `cell_label`).
void RunCell(const std::string& cell_label, uint64_t update_triples,
             double update_accuracy, int trials, uint64_t seed, Cell* baseline,
             Cell* rs, Cell* ss, double* overall_accuracy,
             TraceRecorder* recorder) {
  for (int t = 0; t < trials; ++t) {
    Rng rng(seed + 1009 * t);
    Evolving kg;
    kg.oracle = PerClusterBernoulliOracle(seed + 7 * t);
    kg.Append(MovieLikeSizes(kBaseClusters * 9, rng), kBaseAccuracy);

    EvaluationOptions options;
    options.seed = seed + 31 * t;
    options.m = 5;
    if (t == 0) {
      recorder->SetLabelPrefix(cell_label + "/");
      options.telemetry = recorder;
    }

    SimulatedAnnotator a_rs(&kg.oracle, kCost), a_ss(&kg.oracle, kCost);
    ReservoirIncrementalEvaluator rs_eval(&kg.population, &a_rs, options);
    StratifiedIncrementalEvaluator ss_eval(&kg.population, &a_ss, options);
    rs_eval.Initialize();
    ss_eval.Initialize();

    const uint64_t first = kg.population.NumClusters();
    kg.Append(MovieLikeSizes(update_triples, rng), update_accuracy);
    const uint64_t count = kg.population.NumClusters() - first;
    *overall_accuracy = kg.ExpectedAccuracy();

    SnapshotBaselineEvaluator base_eval(&kg.oracle, kCost, options);
    const EvaluationResult rb = base_eval.Evaluate(kg.population);
    baseline->hours.Add(rb.AnnotationHours());
    baseline->estimate.Add(rb.estimate.mean);

    const EvaluationResult rr = rs_eval.ApplyUpdate(first, count);
    rs->hours.Add(rr.AnnotationHours());
    rs->estimate.Add(rr.estimate.mean);

    const EvaluationResult rq = ss_eval.ApplyUpdate(first, count);
    ss->hours.Add(rq.AnnotationHours());
    ss->estimate.Add(rq.estimate.mean);
  }
}

void PrintCell(const char* label, double overall, const Cell& baseline,
               const Cell& rs, const Cell& ss) {
  std::printf("%-14s %8.0f%% %14s %14s %14s\n", label, overall * 100.0,
              bench::MeanStd(baseline.hours).c_str(),
              bench::MeanStd(rs.hours).c_str(),
              bench::MeanStd(ss.hours).c_str());
}

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();
  const int trials = bench::Trials(15);
  TraceRecorder recorder;
  std::vector<std::pair<std::string, double>> metadata;

  bench::Banner(StrFormat("Figure 8-1: varying update size (update accuracy "
                          "90%%, %d trials) — update-evaluation hours", trials));
  std::printf("%-14s %9s %14s %14s %14s\n", "update size", "overall",
              "Baseline", "RS", "SS");
  bench::Rule();
  for (uint64_t update_triples : {130000ull, 265000ull, 530000ull, 796000ull}) {
    Cell baseline, rs, ss;
    double overall = 0.0;
    const std::string label = StrFormat(
        "size%lluK", static_cast<unsigned long long>(update_triples / 1000));
    RunCell(label, update_triples, 0.9, trials, seed + update_triples,
            &baseline, &rs, &ss, &overall, &recorder);
    metadata.emplace_back("truth_" + label, overall);
    PrintCell(StrFormat("%lluK", static_cast<unsigned long long>(
                                     update_triples / 1000)).c_str(),
              overall, baseline, rs, ss);
  }
  std::printf("Paper shape: Baseline >> RS > SS; RS cost grows with update "
              "size, SS only creeps up.\n");

  bench::Banner(StrFormat("Figure 8-2: varying update accuracy (update size "
                          "796K, %d trials) — update-evaluation hours", trials));
  std::printf("%-14s %9s %14s %14s %14s\n", "update acc", "overall",
              "Baseline", "RS", "SS");
  bench::Rule();
  for (double update_accuracy : {0.2, 0.4, 0.6, 0.8}) {
    Cell baseline, rs, ss;
    double overall = 0.0;
    const std::string label =
        StrFormat("acc%.0f", update_accuracy * 100.0);
    RunCell(label, 796000, update_accuracy, trials,
            seed + static_cast<uint64_t>(update_accuracy * 1000), &baseline,
            &rs, &ss, &overall, &recorder);
    metadata.emplace_back("truth_" + label, overall);
    PrintCell(FormatPercent(update_accuracy, 0).c_str(), overall, baseline, rs,
              ss);
  }
  std::printf("Paper shape: Baseline/RS get cheaper as the update (and thus "
              "overall KG) gets more accurate;\nSS peaks when update accuracy "
              "approaches 50%% and wins overall (20-67%% cheaper than RS).\n");

  const std::string artifact =
      bench::ArtifactPath("BENCH_fig8_evolving_single.json");
  const Status written = WriteTraceJson(artifact, recorder.campaigns(),
                                        metadata);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\nper-round trajectories (first trial per cell): %s\n",
              artifact.c_str());
  return 0;
}
