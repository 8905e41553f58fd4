// Cost-budget sweep: how estimate quality degrades as the annotation budget
// shrinks. Runs the same TWCS campaign under a sweep of `max_cost_seconds`
// budgets (the paper's Section 6 "evaluation under a time budget" framing)
// and reports, per budget: the cost actually spent, achieved MoE, the
// estimate, and convergence.
//
// Each sweep row is annotated with per-phase machine timings
// (sample/annotate) taken as metrics-registry
// snapshot deltas around the run — the obs subsystem's striped histograms,
// not extra stopwatches, so the timed path is exactly the production path.
//
// Writes BENCH_cost_sweep.json (a kgacc-bench-v2 artifact, into
// $KGACC_BENCH_JSON_DIR when set) with one row per budget:
//
//   {"budget_seconds": ..., "cost_seconds": ..., "estimate": ..., "moe": ...,
//    "units": ..., "rounds": ..., "converged": true|false,
//    "phase_seconds": {"sample": ..., "annotate": ...}}
//
// The sweep's designed invariants are exact (the runs are seeded and the
// cost model is simulated), so the bench checks them itself and exits
// non-zero when one breaks: budgets ascend with the unbounded run last,
// spent cost is non-decreasing and achieved MoE non-increasing in the
// budget (more annotation never hurts precision, trial-for-trial). The
// companion test pins the same properties on a small instance.

#include <cstdio>
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

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

struct SweepRow {
  double budget_seconds = 0.0;
  double cost_seconds = 0.0;
  double estimate = 0.0;
  double moe = 0.0;
  uint64_t units = 0;
  uint64_t rounds = 0;
  bool converged = false;
  double sample_seconds = 0.0;
  double annotate_seconds = 0.0;
};

double PhaseSum(const obs::MetricsSnapshot& snapshot, const char* name) {
  const obs::HistogramSnapshot* histogram = snapshot.FindHistogram(name);
  return histogram != nullptr ? histogram->sum_seconds : 0.0;
}

/// Budgets ascend (0 = unbounded, last); spent cost is non-decreasing and
/// achieved MoE non-increasing in the budget.
bool CheckSweepInvariants(const std::vector<SweepRow>& rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    const SweepRow& prev = rows[i - 1];
    const SweepRow& row = rows[i];
    const char* broken = nullptr;
    if (row.budget_seconds != 0.0 &&
        (prev.budget_seconds == 0.0 ||
         row.budget_seconds <= prev.budget_seconds)) {
      broken = "budgets not ascending";
    } else if (row.cost_seconds < prev.cost_seconds) {
      broken = "spent cost decreased as the budget grew";
    } else if (row.moe > prev.moe) {
      broken = "MoE increased as the budget grew";
    }
    if (broken != nullptr) {
      std::fprintf(stderr,
                   "error: %s (budget %.0fs -> %.0fs: cost %.0fs -> %.0fs, "
                   "MoE %.4f -> %.4f)\n",
                   broken, prev.budget_seconds, row.budget_seconds,
                   prev.cost_seconds, row.cost_seconds, prev.moe, row.moe);
      return false;
    }
  }
  return true;
}

int RunSweep() {
  Rng rng(bench::Seed());
  std::vector<uint32_t> sizes =
      GenerateLogNormalSizes(100000, 1.55, 1.1, 2000, rng);
  PerClusterBernoulliOracle oracle(0x5eed);
  for (size_t i = 0; i < sizes.size(); ++i) oracle.Append(0.85);
  const ClusterPopulation population(std::move(sizes));

  // Budgets from starved (a couple of rounds) to unconstrained; 0 = none.
  const std::vector<double> budgets = {25000,  50000,  100000, 200000,
                                       400000, 800000, 0};

  obs::EnableMetrics(true);
  std::vector<SweepRow> rows;
  bench::Banner("TWCS under an annotation-cost budget (c1=45s, c2=25s)");
  std::printf("%12s %12s %10s %8s %7s %7s %5s %34s\n", "budget", "spent",
              "estimate", "MoE", "units", "rounds", "conv",
              "machine phases (sam/ann ms)");
  bench::Rule();
  for (const double budget : budgets) {
    EvaluationOptions options;
    options.seed = bench::Seed();
    options.moe_target = 0.01;  // tight, so the budget is what binds.
    options.max_cost_seconds = budget;
    SimulatedAnnotator annotator(&oracle, kCost);

    obs::MetricsRegistry::Global().ResetValues();
    const Result<EvaluationResult> run = DesignRegistry::Global().Run(
        "twcs", population, &annotator, options);
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
      return 1;
    }
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();

    SweepRow row;
    row.budget_seconds = budget;
    row.cost_seconds = run->annotation_seconds;
    row.estimate = run->estimate.mean;
    row.moe = run->moe;
    row.units = run->estimate.num_units;
    row.rounds = run->rounds;
    row.converged = run->converged;
    row.sample_seconds = PhaseSum(snapshot, "engine.round.sample_seconds");
    row.annotate_seconds = PhaseSum(snapshot, "engine.round.annotate_seconds");
    rows.push_back(row);

    std::printf("%12s %12.0f %9.2f%% %7.2f%% %7llu %7llu %5s %10.1f/%.1f\n",
                budget > 0 ? StrFormat("%.0f", budget).c_str() : "none",
                row.cost_seconds, row.estimate * 100.0, row.moe * 100.0,
                static_cast<unsigned long long>(row.units),
                static_cast<unsigned long long>(row.rounds),
                row.converged ? "yes" : "no", row.sample_seconds * 1e3,
                row.annotate_seconds * 1e3);
  }
  obs::EnableMetrics(false);

  BenchArtifact artifact("cost_sweep");
  artifact.config().Key("design").String("twcs");
  for (const SweepRow& row : rows) {
    artifact.rows()
        .BeginObject()
        .Key("budget_seconds").Number(row.budget_seconds)
        .Key("cost_seconds").Number(row.cost_seconds)
        .Key("estimate").Number(row.estimate)
        .Key("moe").Number(row.moe)
        .Key("units").Uint(row.units)
        .Key("rounds").Uint(row.rounds)
        .Key("converged").Bool(row.converged)
        .Key("phase_seconds").BeginObject()
        .Key("sample").Number(row.sample_seconds)
        .Key("annotate").Number(row.annotate_seconds)
        .EndObject()
        .EndObject();
  }
  const std::string path = bench::ArtifactPath("BENCH_cost_sweep.json");
  const Status written = artifact.Write(path);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\ncost sweep artifact: %s (%zu budgets)\n", path.c_str(),
              rows.size());
  return CheckSweepInvariants(rows) ? 0 : 1;
}

}  // namespace
}  // namespace kgacc

int main() { return kgacc::RunSweep(); }
