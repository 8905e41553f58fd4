// Reproduces Table 6: TWCS vs the KGEval baseline (Ojha & Talukdar 2017) on
// NELL and YAGO — machine time for sample generation/inference, number of
// triples annotated, annotation time and the estimate.
//
// Paper values:
//   NELL: KGEval 12.44 h machine / 140 triples / 2.3 h annotation / 91.84%
//         TWCS  <1 s machine / 149±47 triples / 1.85±0.6 h / 91.63%±2.3%
//   YAGO: KGEval 18.13 h machine / 204 triples / 3.17 h annotation / 99.3%
//         TWCS  <1 s machine / 32±5 triples / 0.44±0.07 h / 99.2%
//
// Our KGEval reimplementation is a simplified C++ PSL-like propagator, so
// its absolute machine time is far below the original Java/PSL stack; the
// preserved shape is the orders-of-magnitude gap to TWCS, the comparable
// annotation counts, and the lack of a statistical guarantee.

#include <cstdio>

#include "bench_util.h"
#include "core/design_registry.h"
#include "core/optimal_m.h"
#include "datasets/registry.h"
#include "labels/annotator.h"

namespace kgacc {
namespace {

void RunDataset(const char* name, const Dataset& dataset, int twcs_trials,
                uint64_t seed) {
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};

  // --- KGEval through the registry (single run; its control loop is
  // deterministic). -------------------------------------------------------
  SimulatedAnnotator kgeval_annotator(dataset.oracle.get(), cost);
  const Result<EvaluationResult> kgeval_run = DesignRegistry::Global().Run(
      "kgeval", dataset.View(), &kgeval_annotator, EvaluationOptions{});
  if (!kgeval_run.ok()) {
    std::fprintf(stderr, "error: %s\n", kgeval_run.status().ToString().c_str());
    return;
  }
  const EvaluationResult& kgeval_result = *kgeval_run;

  // --- TWCS over trials. --------------------------------------------------
  const ClusterPopulationStats stats =
      BuildPopulationStats(dataset.View(), *dataset.oracle);
  const uint64_t optimal_m =
      ChooseOptimalM(stats, cost, EvaluationOptions().Alpha(),
                     EvaluationOptions().moe_target)
          .best_m;
  RunningStats twcs_triples, twcs_hours, twcs_estimate, twcs_machine;
  for (int t = 0; t < twcs_trials; ++t) {
    EvaluationOptions options;
    options.seed = seed + 31 * t;
    options.m = optimal_m;  // the Eq 12-optimal m.
    SimulatedAnnotator annotator(dataset.oracle.get(), cost);
    const EvaluationResult r =
        bench::RunDesign("twcs", dataset.View(), &annotator, options);
    twcs_triples.Add(static_cast<double>(r.ledger.triples_annotated));
    twcs_hours.Add(r.AnnotationHours());
    twcs_estimate.Add(r.estimate.mean);
    twcs_machine.Add(r.machine_seconds);
  }

  bench::Banner(StrFormat("Table 6 — %s", name));
  std::printf("%-26s %18s %18s\n", "", "KGEval", "TWCS");
  bench::Rule();
  std::printf("%-26s %18s %18s\n", "machine time",
              FormatDuration(kgeval_result.machine_seconds).c_str(),
              FormatDuration(twcs_machine.Mean()).c_str());
  std::printf("%-26s %18llu %18s\n", "# triples annotated",
              static_cast<unsigned long long>(
                  kgeval_result.ledger.triples_annotated),
              bench::MeanStd(twcs_triples, 0).c_str());
  std::printf("%-26s %18s %18s\n", "annotation time (h)",
              StrFormat("%.2f", kgeval_result.AnnotationHours()).c_str(),
              bench::MeanStd(twcs_hours).c_str());
  std::printf("%-26s %17.2f%% %18s\n", "estimation",
              kgeval_result.estimate.mean * 100.0,
              bench::MeanStdPercent(twcs_estimate).c_str());
  std::printf("%-26s %18s %18s\n", "statistical guarantee", "none",
              "MoE<=5% @95%");
  std::printf("machine-time ratio KGEval/TWCS: %.0fx\n",
              kgeval_result.machine_seconds /
                  std::max(1e-9, twcs_machine.Mean()));
}

}  // namespace
}  // namespace kgacc

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();
  const int trials = bench::Trials(200);

  {
    const Dataset nell = MakeNell(seed);
    RunDataset("NELL (gold acc ~91%)", nell, trials, seed);
  }
  {
    const Dataset yago = MakeYago(seed);
    RunDataset("YAGO (gold acc ~99%)", yago, trials, seed);
  }

  std::printf(
      "\nPaper: KGEval needed 12.44 h (NELL) / 18.13 h (YAGO) of machine time "
      "on its PSL stack vs <1 s for TWCS\n(our C++ reimplementation is far "
      "faster in absolute terms; the orders-of-magnitude gap to TWCS and\n"
      "the annotation-count relationship are the reproduced shape).\n");
  return 0;
}
