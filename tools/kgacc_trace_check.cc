// kgacc_trace_check — CI gate over the bench JSON artifacts.
//
//   kgacc_trace_check [--baseline DIR] [--tolerance 0.15]
//                     [--min-annotate-speedup X] BENCH_*.json [...]
//
// Several artifact schemas are understood, dispatched on the "schema" field:
//
//  - kgacc-trace-v1 (campaign traces): every file must parse with at least
//    one campaign, and every campaign must pass ValidateTrace (non-empty
//    rounds, strictly increasing round indices, non-decreasing cumulative
//    cost/units/annotations, CI bounds bracketing the estimate). With
//    --baseline DIR, each file is additionally compared against the
//    committed snapshot of the same name in DIR: a campaign whose
//    cost-at-convergence (final-round cumulative cost) exceeds the
//    baseline's by more than --tolerance (default 0.15 = 15%), or which
//    converged in the baseline but no longer does, fails the gate. Files
//    without a baseline snapshot pass with a note (new designs are not
//    regressions).
//
//  - kgacc-annotate-bench-v1 (the crowd-scale AnnotateBatch sweep): the
//    sweep must be non-empty with positive throughputs, and — when
//    --min-annotate-speedup is given — the best multi-threaded speedup per
//    batch size must reach that floor (CI uses a modest floor because
//    shared runners have few cores; the ≥2x-at-8-threads target is checked
//    on dedicated hardware).
//
//  - kgacc-metrics-v1 (runtime metrics snapshots from kgacc_eval --metrics):
//    counters/gauges/histograms must be well-formed — finite values,
//    ascending bucket bounds, bucket counts summing to the histogram count,
//    monotone p50 <= p95 <= p99 — and the core engine/annotation metrics
//    must be present with activity recorded.
//
//  - kgacc-metrics-bench-v1 (the instrumentation-overhead artifact from
//    bench_micro_engine): with --max-metrics-overhead F, the measured
//    overhead fraction of running with metrics collection enabled must not
//    exceed F.
//
//  - kgacc-cost-sweep-v1 (the bench_cost_sweep budget sweep): budgets must
//    ascend, spent cost must be non-decreasing and achieved MoE
//    non-increasing in the budget.
//
//  - kgacc-serve-bench-v1 (the bench_serve_latency load-generator artifact):
//    every request type must have consistent percentiles (p50 <= p95 <=
//    p99 <= max), the run must contain requests with zero protocol errors,
//    and — with --max-serve-p99 MS and/or --min-serve-qps Q — the gated
//    request types' p99 latency and the aggregate throughput must meet the
//    given floors, so a serving-path regression fails CI.
//
//  - kgacc-kgstore-bench-v1 (the bench_fig7_scalability graph-store
//    section): rows must ascend in triple count with positive build
//    throughput, open latency and lookup cost, and open latency must be
//    size-independent — the largest store may not take more than a small
//    constant factor longer to open than the smallest (O(1) mmap open is
//    the format's core contract). --max-open-ms MS and
//    --min-build-mtriples-per-sec R add absolute floors on top.
//
//  - kgacc-async-bench-v1 (the bench_async_annotate speedup matrix): every
//    row must be bit-identical to its synchronous baseline with positive
//    timings, and — with --min-async-speedup X — the best speedup at the
//    matrix's largest latency over windows of at least 8 must reach X, so a
//    regression that serializes the completion-queue bridge fails CI.
//
//  - kgacc-fleet-bench-v1 (the bench_fleet_scheduler multi-tenant artifact):
//    every policy row must carry a consistent tenant roster (cost shares
//    summing to ~1 where budget was spent, CI widths in [0, 1], Jain
//    fairness in (0, 1]), and whenever both a greedy-ci and a round-robin
//    row are present, greedy-ci must beat round-robin on mean CI width at
//    equal budget — the fleet-level efficiency claim, checked
//    unconditionally. --max-fleet-ci-width W gates the greedy-ci row's
//    mean CI width at budget exhaustion; --min-fleet-fairness J gates the
//    weighted-fair row's Jain index.
//
//  - Chrome trace_event documents (kgacc_eval --chrome-trace), recognized by
//    their "traceEvents" member: events must be well-formed complete/counter/
//    metadata events with non-negative timestamps, and — with
//    --min-trace-threads N — span events must cover at least N distinct
//    threads (proof that the concurrent annotation path was exercised).
//
// Gate coverage: every explicitly requested gate flag must match at least
// one input artifact of the kind it inspects; a gate whose artifact kind
// never appears fails the run instead of passing vacuously (the failure
// mode where a renamed artifact silently disarms CI).
//
// Exits non-zero with a diagnostic on stderr on any failure, so a
// regression that silences telemetry, breaks cost accounting, or slows the
// concurrent annotation path fails the build instead of shipping.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/telemetry.h"
#include "util/flags.h"
#include "util/json.h"

namespace kgacc {
namespace {

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The cumulative annotation cost when the campaign stopped.
double CostAtEnd(const CampaignTrace& trace) {
  return trace.rounds.empty() ? 0.0 : trace.rounds.back().cost_seconds;
}

/// Compares a trace file against its committed baseline snapshot. Campaigns
/// are matched positionally (the bench-smoke commands are deterministic, so
/// campaign order is part of the artifact contract).
bool CheckAgainstBaseline(const std::string& path,
                          const std::vector<CampaignTrace>& current,
                          const std::string& baseline_dir, double tolerance) {
  const std::string baseline_path = baseline_dir + "/" + Basename(path);
  const Result<std::vector<CampaignTrace>> baseline =
      ReadTraceJson(baseline_path);
  if (!baseline.ok()) {
    std::printf("%s: no baseline snapshot (%s) — skipping regression gate\n",
                path.c_str(), baseline_path.c_str());
    return true;
  }
  if (baseline->size() != current.size()) {
    std::fprintf(stderr,
                 "%s: campaign count changed vs baseline (%zu -> %zu); "
                 "regenerate bench/baselines if intentional\n",
                 path.c_str(), baseline->size(), current.size());
    return false;
  }
  bool ok = true;
  for (size_t i = 0; i < current.size(); ++i) {
    const CampaignTrace& now = current[i];
    const CampaignTrace& then = (*baseline)[i];
    if (then.converged && !now.converged) {
      std::fprintf(stderr, "%s: campaign %zu (%s/%s) no longer converges\n",
                   path.c_str(), i, now.design.c_str(), now.label.c_str());
      ok = false;
      continue;
    }
    const double before = CostAtEnd(then);
    const double after = CostAtEnd(now);
    if (before > 0.0 && after > before * (1.0 + tolerance)) {
      std::fprintf(stderr,
                   "%s: campaign %zu (%s/%s) cost-at-convergence regressed "
                   "%.0fs -> %.0fs (+%.1f%%, tolerance %.0f%%)\n",
                   path.c_str(), i, now.design.c_str(), now.label.c_str(),
                   before, after, (after / before - 1.0) * 100.0,
                   tolerance * 100.0);
      ok = false;
    }
  }
  if (ok) {
    std::printf("%s: within %.0f%% of baseline (%zu campaigns)\n",
                path.c_str(), tolerance * 100.0, current.size());
  }
  return ok;
}

/// Validates a kgacc-annotate-bench-v1 sweep artifact.
bool CheckAnnotateBench(const std::string& path, const JsonValue& doc,
                        double min_speedup) {
  const JsonValue* sweep = doc.Find("sweep");
  if (sweep == nullptr || !sweep->is_array() || sweep->AsArray().empty()) {
    std::fprintf(stderr, "%s: empty or missing sweep\n", path.c_str());
    return false;
  }
  // Best multi-threaded speedup per batch size.
  std::map<int64_t, double> best_speedup;
  for (const JsonValue& entry : sweep->AsArray()) {
    const Result<double> batch = entry.GetNumber("batch");
    const Result<double> threads = entry.GetNumber("threads");
    const Result<double> rate = entry.GetNumber("items_per_second");
    const Result<double> speedup = entry.GetNumber("speedup_vs_1");
    if (!batch.ok() || !threads.ok() || !rate.ok() || !speedup.ok()) {
      std::fprintf(stderr, "%s: malformed sweep entry\n", path.c_str());
      return false;
    }
    if (*rate <= 0.0) {
      std::fprintf(stderr, "%s: non-positive throughput (batch %.0f)\n",
                   path.c_str(), *batch);
      return false;
    }
    if (*threads > 1.0) {
      double& best = best_speedup[static_cast<int64_t>(*batch)];
      best = std::max(best, *speedup);
    }
  }
  // The speedup floor applies to the largest (crowd-scale) batch only:
  // small batches legitimately lose to thread hand-off on few-core runners,
  // and small-batch parallelism is not what the subsystem is for.
  const int64_t crowd_batch =
      best_speedup.empty() ? 0 : best_speedup.rbegin()->first;
  bool ok = true;
  for (const auto& [batch, speedup] : best_speedup) {
    std::printf("%s: batch %lld best multi-thread speedup %.2fx%s\n",
                path.c_str(), static_cast<long long>(batch), speedup,
                batch == crowd_batch ? " (gated)" : "");
    if (min_speedup > 0.0 && batch == crowd_batch && speedup < min_speedup) {
      std::fprintf(stderr,
                   "%s: batch %lld speedup %.2fx below required %.2fx\n",
                   path.c_str(), static_cast<long long>(batch), speedup,
                   min_speedup);
      ok = false;
    }
  }
  if (ok) {
    std::printf("%s: OK (%zu sweep configurations)\n", path.c_str(),
                sweep->AsArray().size());
  }
  return ok;
}

/// Validates a kgacc-async-bench-v1 artifact (bench_async_annotate) and
/// enforces the async-speedup gate when --min-async-speedup is given.
bool CheckAsyncBench(const std::string& path, const JsonValue& doc,
                     double min_speedup) {
  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() || rows->AsArray().empty()) {
    std::fprintf(stderr, "%s: missing or empty rows array\n", path.c_str());
    return false;
  }
  bool ok = true;
  double max_latency = 0.0;
  for (const JsonValue& row : rows->AsArray()) {
    const Result<double> latency = row.GetNumber("latency_ms");
    if (latency.ok()) max_latency = std::max(max_latency, *latency);
  }
  // The speedup floor applies where overlapping latency matters: the
  // matrix's largest latency, with a window of at least 8 (the acceptance
  // configuration). mc=1 rows are the no-overlap control and zero-latency
  // rows measure pure bridge overhead; gating them would be meaningless.
  double gated_best = -1.0;
  for (const JsonValue& row : rows->AsArray()) {
    const Result<double> latency = row.GetNumber("latency_ms");
    const Result<double> window = row.GetNumber("max_concurrent");
    const Result<double> sync_s = row.GetNumber("sync_seconds");
    const Result<double> async_s = row.GetNumber("async_seconds");
    const Result<double> speedup = row.GetNumber("speedup");
    const Result<bool> identical = row.GetBool("identical");
    if (!latency.ok() || !window.ok() || !sync_s.ok() || !async_s.ok() ||
        !speedup.ok() || !identical.ok()) {
      std::fprintf(stderr, "%s: malformed async bench row\n", path.c_str());
      return false;
    }
    if (*latency < 0.0 || *window < 1.0 || *sync_s < 0.0 || *async_s < 0.0) {
      std::fprintf(stderr,
                   "%s: negative measurement (latency %.0fms, window %.0f)\n",
                   path.c_str(), *latency, *window);
      return false;
    }
    if (!*identical) {
      std::fprintf(stderr,
                   "%s: async run diverged from the synchronous baseline "
                   "(latency %.0fms, max_concurrent %.0f) — determinism "
                   "contract violated\n",
                   path.c_str(), *latency, *window);
      ok = false;
    }
    const bool gated =
        *latency == max_latency && max_latency > 0.0 && *window >= 8.0;
    if (gated) gated_best = std::max(gated_best, *speedup);
    std::printf("%s: latency %3.0fms window %3.0f  %6.2fx%s\n", path.c_str(),
                *latency, *window, *speedup, gated ? " (gated)" : "");
  }
  if (min_speedup > 0.0) {
    if (gated_best < 0.0) {
      std::fprintf(stderr,
                   "%s: no row qualifies for the async-speedup gate (need "
                   "latency > 0 and max_concurrent >= 8)\n",
                   path.c_str());
      ok = false;
    } else if (gated_best < min_speedup) {
      std::fprintf(stderr,
                   "%s: best gated speedup %.2fx below required %.2fx\n",
                   path.c_str(), gated_best, min_speedup);
      ok = false;
    }
  }
  if (ok) {
    std::printf("%s: OK (%zu matrix cells, all bit-identical)\n",
                path.c_str(), rows->AsArray().size());
  }
  return ok;
}

/// Validates a kgacc-fleet-bench-v1 artifact (bench_fleet_scheduler) and
/// enforces the fleet CI-width / fairness gates. The greedy-vs-round-robin
/// comparison runs unconditionally whenever both rows are present: the
/// bench is deterministic, so "greedy-ci buys narrower CIs for the same
/// budget" is an exact, repeatable claim.
bool CheckFleetBench(const std::string& path, const JsonValue& doc,
                     double max_ci_width, double min_fairness) {
  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() || rows->AsArray().empty()) {
    std::fprintf(stderr, "%s: missing or empty rows array\n", path.c_str());
    return false;
  }
  bool ok = true;
  double greedy_mean = -1.0;
  double greedy_avg = -1.0;
  double rr_avg = -1.0;
  double fair_jain = -1.0;
  bool have_greedy = false;
  for (const JsonValue& row : rows->AsArray()) {
    const Result<std::string> policy = row.GetString("policy");
    const Result<double> grants = row.GetNumber("grants");
    const Result<double> spent = row.GetNumber("spent_seconds");
    const Result<double> mean_ci = row.GetNumber("mean_ci_width");
    const Result<double> max_ci = row.GetNumber("max_ci_width");
    const Result<double> jain = row.GetNumber("jain_fairness");
    const Result<double> avg_ci = row.GetNumber("budget_avg_ci_width");
    if (!policy.ok() || !grants.ok() || !spent.ok() || !mean_ci.ok() ||
        !max_ci.ok() || !jain.ok() || !avg_ci.ok()) {
      std::fprintf(stderr, "%s: malformed fleet bench row\n", path.c_str());
      return false;
    }
    if (*grants < 1.0 || *spent < 0.0) {
      std::fprintf(stderr, "%s: %s: no grants or negative spend\n",
                   path.c_str(), policy->c_str());
      return false;
    }
    if (!(*mean_ci >= 0.0) || !(*max_ci >= *mean_ci) || *max_ci > 1.0) {
      std::fprintf(stderr,
                   "%s: %s: inconsistent CI widths (mean %.4f, max %.4f)\n",
                   path.c_str(), policy->c_str(), *mean_ci, *max_ci);
      return false;
    }
    if (!(*avg_ci > 0.0) || *avg_ci > 1.0) {
      std::fprintf(stderr,
                   "%s: %s: budget-averaged CI width %.4f outside (0, 1]\n",
                   path.c_str(), policy->c_str(), *avg_ci);
      return false;
    }
    if (!(*jain > 0.0) || *jain > 1.0 + 1e-12) {
      std::fprintf(stderr, "%s: %s: Jain index %.4f outside (0, 1]\n",
                   path.c_str(), policy->c_str(), *jain);
      return false;
    }
    const JsonValue* tenants = row.Find("tenants");
    if (tenants == nullptr || !tenants->is_array() ||
        tenants->AsArray().empty()) {
      std::fprintf(stderr, "%s: %s: missing tenant roster\n", path.c_str(),
                   policy->c_str());
      return false;
    }
    double share_sum = 0.0;
    for (const JsonValue& tenant : tenants->AsArray()) {
      const Result<double> share = tenant.GetNumber("cost_share");
      const Result<double> width = tenant.GetNumber("ci_width");
      if (!share.ok() || !width.ok() || *share < 0.0 || !(*width >= 0.0)) {
        std::fprintf(stderr, "%s: %s: malformed tenant entry\n",
                     path.c_str(), policy->c_str());
        return false;
      }
      share_sum += *share;
    }
    if (*spent > 0.0 && std::abs(share_sum - 1.0) > 1e-6) {
      std::fprintf(stderr,
                   "%s: %s: tenant cost shares sum to %.6f, not 1\n",
                   path.c_str(), policy->c_str(), share_sum);
      return false;
    }
    std::printf(
        "%s: %-13s grants %5.0f  spent %9.0fs  mean CI %.4f  max CI %.4f  "
        "avg CI %.4f  Jain %.4f\n",
        path.c_str(), policy->c_str(), *grants, *spent, *mean_ci, *max_ci,
        *avg_ci, *jain);
    if (*policy == "greedy-ci") {
      greedy_mean = *mean_ci;
      greedy_avg = *avg_ci;
      have_greedy = true;
    } else if (*policy == "round-robin") {
      rr_avg = *avg_ci;
    } else if (*policy == "weighted-fair") {
      fair_jain = *jain;
    }
  }
  // The efficiency claim: at equal budget the greedy-ci fleet converges
  // faster — strictly lower fleet CI width averaged over the spend
  // trajectory (the budget-weighted integral, not the noisy final snapshot).
  if (have_greedy && rr_avg >= 0.0 && !(greedy_avg < rr_avg)) {
    std::fprintf(stderr,
                 "%s: greedy-ci budget-averaged CI width %.4f does not beat "
                 "round-robin %.4f at equal budget\n",
                 path.c_str(), greedy_avg, rr_avg);
    ok = false;
  }
  if (max_ci_width > 0.0) {
    if (!have_greedy) {
      std::fprintf(stderr,
                   "%s: --max-fleet-ci-width needs a greedy-ci row\n",
                   path.c_str());
      ok = false;
    } else if (greedy_mean > max_ci_width) {
      std::fprintf(stderr,
                   "%s: greedy-ci mean CI width %.4f above allowed %.4f\n",
                   path.c_str(), greedy_mean, max_ci_width);
      ok = false;
    }
  }
  if (min_fairness > 0.0) {
    if (fair_jain < 0.0) {
      std::fprintf(stderr,
                   "%s: --min-fleet-fairness needs a weighted-fair row\n",
                   path.c_str());
      ok = false;
    } else if (fair_jain < min_fairness) {
      std::fprintf(stderr,
                   "%s: weighted-fair Jain index %.4f below required %.4f\n",
                   path.c_str(), fair_jain, min_fairness);
      ok = false;
    }
  }
  if (ok) {
    std::printf("%s: OK (%zu policy rows)\n", path.c_str(),
                rows->AsArray().size());
  }
  return ok;
}

/// Validates one kgacc-metrics-v1 histogram entry.
bool CheckHistogramEntry(const std::string& path, const JsonValue& entry) {
  const Result<std::string> name = entry.GetString("name");
  const Result<double> count = entry.GetNumber("count");
  const Result<double> sum = entry.GetNumber("sum_seconds");
  const Result<double> p50 = entry.GetNumber("p50_seconds");
  const Result<double> p95 = entry.GetNumber("p95_seconds");
  const Result<double> p99 = entry.GetNumber("p99_seconds");
  const Result<double> min = entry.GetNumber("min_seconds");
  const Result<double> max = entry.GetNumber("max_seconds");
  if (!name.ok() || !count.ok() || !sum.ok() || !p50.ok() || !p95.ok() ||
      !p99.ok() || !min.ok() || !max.ok()) {
    std::fprintf(stderr, "%s: malformed histogram entry\n", path.c_str());
    return false;
  }
  if (*count < 0.0 || *sum < 0.0 || *min < 0.0 || *min > *max ||
      *min > *p50 || *p50 > *p95 || *p95 > *p99 || *p99 > *max) {
    std::fprintf(stderr,
                 "%s: histogram '%s' has inconsistent summary stats\n",
                 path.c_str(), name->c_str());
    return false;
  }
  const JsonValue* buckets = entry.Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    std::fprintf(stderr, "%s: histogram '%s' missing buckets\n", path.c_str(),
                 name->c_str());
    return false;
  }
  double bucket_total = 0.0;
  double prev_le = -1.0;
  for (const JsonValue& bucket : buckets->AsArray()) {
    const Result<double> le = bucket.GetNumber("le_seconds");
    const Result<double> bucket_count = bucket.GetNumber("count");
    if (!le.ok() || !bucket_count.ok() || *bucket_count <= 0.0 ||
        *le <= prev_le) {
      std::fprintf(stderr,
                   "%s: histogram '%s' has malformed or non-ascending "
                   "buckets\n",
                   path.c_str(), name->c_str());
      return false;
    }
    prev_le = *le;
    bucket_total += *bucket_count;
  }
  if (bucket_total != *count) {
    std::fprintf(stderr,
                 "%s: histogram '%s' bucket counts sum to %.0f, count says "
                 "%.0f\n",
                 path.c_str(), name->c_str(), bucket_total, *count);
    return false;
  }
  return true;
}

/// Validates a kgacc-metrics-v1 snapshot artifact.
bool CheckMetrics(const std::string& path, const JsonValue& doc) {
  const JsonValue* counters = doc.Find("counters");
  const JsonValue* gauges = doc.Find("gauges");
  const JsonValue* histograms = doc.Find("histograms");
  if (counters == nullptr || !counters->is_array() || gauges == nullptr ||
      !gauges->is_array() || histograms == nullptr ||
      !histograms->is_array()) {
    std::fprintf(stderr,
                 "%s: missing counters/gauges/histograms arrays\n",
                 path.c_str());
    return false;
  }
  bool ok = true;
  uint64_t active_counters = 0;
  bool saw_rounds = false;
  for (const JsonValue& entry : counters->AsArray()) {
    const Result<std::string> name = entry.GetString("name");
    const Result<double> value = entry.GetNumber("value");
    if (!name.ok() || !value.ok() || *value < 0.0) {
      std::fprintf(stderr, "%s: malformed counter entry\n", path.c_str());
      ok = false;
      continue;
    }
    if (*value > 0.0) ++active_counters;
    // Engine-loop designs count rounds; rs/ss run through the incremental
    // driver instead, whose campaigns always annotate through the batch
    // path. Either counter proves collection was actually enabled.
    if ((*name == "engine.rounds" || *name == "annotation.cache.lookups") &&
        *value > 0.0) {
      saw_rounds = true;
    }
  }
  for (const JsonValue& entry : histograms->AsArray()) {
    if (!CheckHistogramEntry(path, entry)) ok = false;
  }
  // A metrics artifact from an actual evaluation must show campaign
  // activity; an all-zero snapshot means collection was never enabled.
  if (!saw_rounds) {
    std::fprintf(stderr,
                 "%s: no engine.rounds or annotation.cache.lookups activity "
                 "recorded — was metrics collection enabled?\n",
                 path.c_str());
    ok = false;
  }
  if (ok) {
    std::printf("%s: OK (%zu counters [%llu active], %zu histograms)\n",
                path.c_str(), counters->AsArray().size(),
                static_cast<unsigned long long>(active_counters),
                histograms->AsArray().size());
  }
  return ok;
}

/// Validates a kgacc-metrics-bench-v1 overhead artifact and enforces the
/// instrumentation-overhead budget when --max-metrics-overhead is given.
bool CheckMetricsBench(const std::string& path, const JsonValue& doc,
                       double max_overhead) {
  const Result<double> baseline = doc.GetNumber("baseline_seconds");
  const Result<double> with_metrics = doc.GetNumber("metrics_seconds");
  const Result<double> overhead = doc.GetNumber("overhead_fraction");
  if (!baseline.ok() || !with_metrics.ok() || !overhead.ok()) {
    std::fprintf(stderr,
                 "%s: missing baseline_seconds/metrics_seconds/"
                 "overhead_fraction\n",
                 path.c_str());
    return false;
  }
  if (*baseline <= 0.0 || *with_metrics <= 0.0) {
    std::fprintf(stderr, "%s: non-positive bench timings\n", path.c_str());
    return false;
  }
  std::printf("%s: metrics overhead %.2f%% (off %.3fs, on %.3fs)\n",
              path.c_str(), *overhead * 100.0, *baseline, *with_metrics);
  if (max_overhead > 0.0 && *overhead > max_overhead) {
    std::fprintf(stderr,
                 "%s: instrumentation overhead %.2f%% exceeds budget %.2f%%\n",
                 path.c_str(), *overhead * 100.0, max_overhead * 100.0);
    return false;
  }
  return true;
}

/// Validates a kgacc-cost-sweep-v1 artifact (bench_cost_sweep): rows are in
/// ascending budget order (0 = unbounded, last), and the sweep's designed
/// invariants hold — spent cost is non-decreasing and achieved MoE is
/// non-increasing in the budget. The runs are seeded and the cost model is
/// simulated, so these are exact properties, not tolerances.
bool CheckCostSweep(const std::string& path, const JsonValue& doc) {
  const JsonValue* sweep = doc.Find("sweep");
  if (sweep == nullptr || !sweep->is_array() || sweep->AsArray().empty()) {
    std::fprintf(stderr, "%s: missing or empty sweep array\n", path.c_str());
    return false;
  }
  double prev_budget = 0.0;
  double prev_cost = -1.0;
  double prev_moe = -1.0;
  bool saw_unbounded = false;
  for (const JsonValue& row : sweep->AsArray()) {
    const Result<double> budget = row.GetNumber("budget_seconds");
    const Result<double> cost = row.GetNumber("cost_seconds");
    const Result<double> moe = row.GetNumber("moe");
    if (!budget.ok() || !cost.ok() || !moe.ok() ||
        row.Find("estimate") == nullptr || row.Find("rounds") == nullptr ||
        row.Find("phase_seconds") == nullptr) {
      std::fprintf(stderr, "%s: malformed sweep row\n", path.c_str());
      return false;
    }
    if (*budget == 0.0) {
      saw_unbounded = true;  // unbounded row(s) must come last.
    } else if (saw_unbounded || *budget <= prev_budget) {
      std::fprintf(stderr, "%s: budgets not ascending\n", path.c_str());
      return false;
    }
    if (*cost < prev_cost) {
      std::fprintf(stderr,
                   "%s: spent cost decreased as the budget grew "
                   "(%.0fs -> %.0fs at budget %.0fs)\n",
                   path.c_str(), prev_cost, *cost, *budget);
      return false;
    }
    if (prev_moe >= 0.0 && *moe > prev_moe) {
      std::fprintf(stderr,
                   "%s: MoE increased as the budget grew "
                   "(%.4f -> %.4f at budget %.0fs)\n",
                   path.c_str(), prev_moe, *moe, *budget);
      return false;
    }
    if (*budget > 0.0) prev_budget = *budget;
    prev_cost = *cost;
    prev_moe = *moe;
  }
  std::printf("%s: OK (%zu budgets, cost monotone, MoE non-increasing)\n",
              path.c_str(), sweep->AsArray().size());
  return true;
}

/// Validates a kgacc-serve-bench-v1 artifact (bench_serve_latency) and
/// enforces the serving-latency/throughput gates when given.
bool CheckServeBench(const std::string& path, const JsonValue& doc,
                     double max_p99_ms, double min_qps) {
  const Result<double> total = doc.GetNumber("total_requests");
  const Result<double> errors = doc.GetNumber("errors");
  const Result<double> qps = doc.GetNumber("qps");
  const Result<std::string> mode = doc.GetString("mode");
  const JsonValue* types = doc.Find("request_types");
  if (!total.ok() || !errors.ok() || !qps.ok() || !mode.ok() ||
      types == nullptr || !types->is_array() || types->AsArray().empty()) {
    std::fprintf(stderr,
                 "%s: missing total_requests/errors/qps/mode/request_types\n",
                 path.c_str());
    return false;
  }
  if (*total <= 0.0) {
    std::fprintf(stderr, "%s: bench recorded no requests\n", path.c_str());
    return false;
  }
  if (*errors > 0.0) {
    std::fprintf(stderr, "%s: bench recorded %.0f protocol errors\n",
                 path.c_str(), *errors);
    return false;
  }
  bool ok = true;
  for (const JsonValue& entry : types->AsArray()) {
    const Result<std::string> op = entry.GetString("op");
    const Result<double> count = entry.GetNumber("count");
    const Result<double> p50 = entry.GetNumber("p50_ms");
    const Result<double> p95 = entry.GetNumber("p95_ms");
    const Result<double> p99 = entry.GetNumber("p99_ms");
    const Result<double> max = entry.GetNumber("max_ms");
    if (!op.ok() || !count.ok() || !p50.ok() || !p95.ok() || !p99.ok() ||
        !max.ok()) {
      std::fprintf(stderr, "%s: malformed request_types entry\n",
                   path.c_str());
      return false;
    }
    if (*count == 0.0) continue;  // stream-trace may not fire in tiny runs.
    if (*p50 < 0.0 || *p50 > *p95 || *p95 > *p99 || *p99 > *max) {
      std::fprintf(stderr,
                   "%s: '%s' has inconsistent percentiles "
                   "(p50 %.3f p95 %.3f p99 %.3f max %.3f)\n",
                   path.c_str(), op->c_str(), *p50, *p95, *p99, *max);
      ok = false;
      continue;
    }
    std::printf("%s: %-16s %8.0f reqs  p50 %8.3fms  p99 %8.3fms\n",
                path.c_str(), op->c_str(), *count, *p50, *p99);
    if (max_p99_ms > 0.0 && *p99 > max_p99_ms) {
      std::fprintf(stderr, "%s: '%s' p99 %.3fms exceeds budget %.3fms\n",
                   path.c_str(), op->c_str(), *p99, max_p99_ms);
      ok = false;
    }
  }
  if (min_qps > 0.0 && *qps < min_qps) {
    std::fprintf(stderr, "%s: throughput %.0f qps below required %.0f qps\n",
                 path.c_str(), *qps, min_qps);
    ok = false;
  }
  if (ok) {
    std::printf("%s: OK (%s loop, %.0f requests, %.0f qps)\n", path.c_str(),
                mode->c_str(), *total, *qps);
  }
  return ok;
}

/// Validates a kgacc-kgstore-bench-v1 artifact (the graph-store section of
/// bench_fig7_scalability) and enforces the store-substrate gates.
bool CheckKgstoreBench(const std::string& path, const JsonValue& doc,
                       double max_open_ms, double min_build_rate) {
  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() || rows->AsArray().empty()) {
    std::fprintf(stderr, "%s: missing or empty rows array\n", path.c_str());
    return false;
  }
  bool ok = true;
  double prev_triples = 0.0;
  double open_ms_min = 0.0;
  double open_ms_max = 0.0;
  bool first = true;
  for (const JsonValue& row : rows->AsArray()) {
    const Result<double> triples = row.GetNumber("triples");
    const Result<double> clusters = row.GetNumber("clusters");
    const Result<double> file_bytes = row.GetNumber("file_bytes");
    const Result<double> build_rate =
        row.GetNumber("build_mtriples_per_sec");
    const Result<double> open_ms = row.GetNumber("open_ms");
    const Result<double> lookup_ns = row.GetNumber("lookup_ns");
    if (!triples.ok() || !clusters.ok() || !file_bytes.ok() ||
        !build_rate.ok() || !open_ms.ok() || !lookup_ns.ok()) {
      std::fprintf(stderr, "%s: malformed kgstore bench row\n", path.c_str());
      return false;
    }
    if (*triples <= prev_triples) {
      std::fprintf(stderr, "%s: rows not ascending in triple count\n",
                   path.c_str());
      return false;
    }
    prev_triples = *triples;
    if (*clusters <= 0.0 || *file_bytes <= 0.0 || *build_rate <= 0.0 ||
        *open_ms <= 0.0 || *lookup_ns <= 0.0) {
      std::fprintf(stderr,
                   "%s: non-positive measurement at %.0f triples\n",
                   path.c_str(), *triples);
      return false;
    }
    std::printf("%s: %12.0f triples  build %7.2f Mt/s  open %7.3fms  "
                "lookup %6.1fns\n",
                path.c_str(), *triples, *build_rate, *open_ms, *lookup_ns);
    if (max_open_ms > 0.0 && *open_ms > max_open_ms) {
      std::fprintf(stderr,
                   "%s: open latency %.3fms at %.0f triples exceeds budget "
                   "%.3fms\n",
                   path.c_str(), *open_ms, *triples, max_open_ms);
      ok = false;
    }
    if (min_build_rate > 0.0 && *build_rate < min_build_rate) {
      std::fprintf(stderr,
                   "%s: build throughput %.2f Mtriples/s at %.0f triples "
                   "below required %.2f\n",
                   path.c_str(), *build_rate, *triples, min_build_rate);
      ok = false;
    }
    if (first) {
      open_ms_min = open_ms_max = *open_ms;
      first = false;
    } else {
      open_ms_min = std::min(open_ms_min, *open_ms);
      open_ms_max = std::max(open_ms_max, *open_ms);
    }
  }
  // The O(1)-open contract, checked unconditionally: across a sweep whose
  // triple counts span an order of magnitude or more, open latency may vary
  // only by a constant factor (noise + page-table setup), never with size.
  // 8x plus a 2ms absolute slack keeps tiny-store sweeps (where everything
  // is sub-millisecond timer noise) from flaking while still catching any
  // open path that reads the triple columns.
  constexpr double kMaxOpenRatio = 8.0;
  constexpr double kOpenSlackMs = 2.0;
  if (rows->AsArray().size() > 1 &&
      open_ms_max > open_ms_min * kMaxOpenRatio + kOpenSlackMs) {
    std::fprintf(stderr,
                 "%s: open latency scales with store size (%.3fms -> %.3fms "
                 "across the sweep; O(1) open contract violated)\n",
                 path.c_str(), open_ms_min, open_ms_max);
    ok = false;
  }
  if (ok) {
    std::printf("%s: OK (%zu store sizes, open latency size-independent)\n",
                path.c_str(), rows->AsArray().size());
  }
  return ok;
}

/// Validates a Chrome trace_event document (from kgacc_eval --chrome-trace).
bool CheckChromeTrace(const std::string& path, const JsonValue& doc,
                      uint64_t min_trace_threads) {
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: missing traceEvents array\n", path.c_str());
    return false;
  }
  uint64_t spans = 0;
  std::map<int64_t, uint64_t> span_threads;  // tid -> span count.
  for (const JsonValue& event : events->AsArray()) {
    const Result<std::string> ph = event.GetString("ph");
    const Result<double> tid = event.GetNumber("tid");
    if (!ph.ok() || !tid.ok() || event.Find("pid") == nullptr) {
      std::fprintf(stderr, "%s: malformed trace event\n", path.c_str());
      return false;
    }
    if (*ph == "M") continue;
    const Result<double> ts = event.GetNumber("ts");
    if (!ts.ok() || *ts < 0.0) {
      std::fprintf(stderr, "%s: event with missing/negative ts\n",
                   path.c_str());
      return false;
    }
    if (*ph == "X") {
      const Result<double> dur = event.GetNumber("dur");
      if (!dur.ok() || *dur < 0.0) {
        std::fprintf(stderr, "%s: complete event with bad dur\n",
                     path.c_str());
        return false;
      }
      ++spans;
      ++span_threads[static_cast<int64_t>(*tid)];
    }
  }
  if (spans == 0) {
    std::fprintf(stderr, "%s: trace has no span events\n", path.c_str());
    return false;
  }
  if (span_threads.size() < min_trace_threads) {
    std::fprintf(stderr,
                 "%s: spans cover %zu threads, need >= %llu (parallel "
                 "annotation path not exercised?)\n",
                 path.c_str(), span_threads.size(),
                 static_cast<unsigned long long>(min_trace_threads));
    return false;
  }
  std::printf("%s: OK (%llu spans across %zu threads)\n", path.c_str(),
              static_cast<unsigned long long>(spans), span_threads.size());
  return true;
}

int Run(const FlagParser& flags) {
  const std::string baseline_dir = flags.GetString("baseline", "");
  const double tolerance = flags.GetDouble("tolerance", 0.15).ValueOr(0.15);
  const double min_speedup =
      flags.GetDouble("min-annotate-speedup", 0.0).ValueOr(0.0);
  const double max_overhead =
      flags.GetDouble("max-metrics-overhead", 0.0).ValueOr(0.0);
  const uint64_t min_trace_threads =
      flags.GetUint64("min-trace-threads", 0).ValueOr(0);
  const double max_serve_p99 = flags.GetDouble("max-serve-p99", 0.0).ValueOr(0.0);
  const double min_serve_qps = flags.GetDouble("min-serve-qps", 0.0).ValueOr(0.0);
  const double max_open_ms = flags.GetDouble("max-open-ms", 0.0).ValueOr(0.0);
  const double min_build_rate =
      flags.GetDouble("min-build-mtriples-per-sec", 0.0).ValueOr(0.0);
  const double min_async_speedup =
      flags.GetDouble("min-async-speedup", 0.0).ValueOr(0.0);
  const double max_fleet_ci_width =
      flags.GetDouble("max-fleet-ci-width", 0.0).ValueOr(0.0);
  const double min_fleet_fairness =
      flags.GetDouble("min-fleet-fairness", 0.0).ValueOr(0.0);

  // Each explicitly requested gate names the artifact kind it inspects;
  // after the file loop, a gate whose kind never appeared fails the run
  // (CheckGateCoverage) instead of passing vacuously.
  std::vector<GateRequirement> active_gates;
  if (min_speedup > 0.0) {
    active_gates.push_back({"min-annotate-speedup", "kgacc-annotate-bench-v1"});
  }
  if (max_overhead > 0.0) {
    active_gates.push_back({"max-metrics-overhead", "kgacc-metrics-bench-v1"});
  }
  if (min_trace_threads > 0) {
    active_gates.push_back({"min-trace-threads", "chrome-trace"});
  }
  if (max_serve_p99 > 0.0) {
    active_gates.push_back({"max-serve-p99", "kgacc-serve-bench-v1"});
  }
  if (min_serve_qps > 0.0) {
    active_gates.push_back({"min-serve-qps", "kgacc-serve-bench-v1"});
  }
  if (max_open_ms > 0.0) {
    active_gates.push_back({"max-open-ms", "kgacc-kgstore-bench-v1"});
  }
  if (min_build_rate > 0.0) {
    active_gates.push_back(
        {"min-build-mtriples-per-sec", "kgacc-kgstore-bench-v1"});
  }
  if (min_async_speedup > 0.0) {
    active_gates.push_back({"min-async-speedup", "kgacc-async-bench-v1"});
  }
  if (max_fleet_ci_width > 0.0) {
    active_gates.push_back({"max-fleet-ci-width", "kgacc-fleet-bench-v1"});
  }
  if (min_fleet_fairness > 0.0) {
    active_gates.push_back({"min-fleet-fairness", "kgacc-fleet-bench-v1"});
  }
  if (!baseline_dir.empty()) {
    active_gates.push_back({"baseline", "kgacc-trace-v1"});
  }
  std::vector<std::string> kinds_seen;

  int failures = 0;
  for (const std::string& path : flags.positional()) {
    // Parse each file once, dispatch on its "schema" field.
    std::ifstream file(path);
    std::ostringstream buffer;
    if (file) buffer << file.rdbuf();
    const Result<JsonValue> doc =
        file ? JsonValue::Parse(buffer.str())
             : Result<JsonValue>(
                   Status::IOError("cannot open '" + path + "'"));
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      ++failures;
      continue;
    }
    const Result<std::string> schema = doc->GetString("schema");
    if (schema.ok() && *schema == "kgacc-annotate-bench-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckAnnotateBench(path, *doc, min_speedup)) ++failures;
      continue;
    }
    if (schema.ok() && *schema == "kgacc-metrics-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckMetrics(path, *doc)) ++failures;
      continue;
    }
    if (schema.ok() && *schema == "kgacc-metrics-bench-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckMetricsBench(path, *doc, max_overhead)) ++failures;
      continue;
    }
    if (schema.ok() && *schema == "kgacc-cost-sweep-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckCostSweep(path, *doc)) ++failures;
      continue;
    }
    if (schema.ok() && *schema == "kgacc-serve-bench-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckServeBench(path, *doc, max_serve_p99, min_serve_qps)) {
        ++failures;
      }
      continue;
    }
    if (schema.ok() && *schema == "kgacc-kgstore-bench-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckKgstoreBench(path, *doc, max_open_ms, min_build_rate)) {
        ++failures;
      }
      continue;
    }
    if (schema.ok() && *schema == "kgacc-async-bench-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckAsyncBench(path, *doc, min_async_speedup)) ++failures;
      continue;
    }
    if (schema.ok() && *schema == "kgacc-fleet-bench-v1") {
      kinds_seen.push_back(*schema);
      if (!CheckFleetBench(path, *doc, max_fleet_ci_width,
                           min_fleet_fairness)) {
        ++failures;
      }
      continue;
    }
    if (doc->Find("traceEvents") != nullptr) {
      kinds_seen.push_back("chrome-trace");
      if (!CheckChromeTrace(path, *doc, min_trace_threads)) ++failures;
      continue;
    }
    // Everything else goes through the trace parser, whose diagnostics
    // cover misschema'd files too.
    const Result<std::vector<CampaignTrace>> traces =
        ParseTraceJson(*doc, path);
    if (!traces.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   traces.status().ToString().c_str());
      ++failures;
      continue;
    }
    kinds_seen.push_back("kgacc-trace-v1");
    if (traces->empty()) {
      std::fprintf(stderr, "%s: no campaigns in trace\n", path.c_str());
      ++failures;
      continue;
    }
    uint64_t rounds = 0;
    bool file_ok = true;
    for (const CampaignTrace& trace : *traces) {
      const Status valid = ValidateTrace(trace);
      if (!valid.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     valid.ToString().c_str());
        file_ok = false;
      }
      rounds += trace.rounds.size();
    }
    if (file_ok && !baseline_dir.empty()) {
      file_ok = CheckAgainstBaseline(path, *traces, baseline_dir, tolerance);
    }
    if (!file_ok) {
      ++failures;
      continue;
    }
    std::printf("%s: OK (%llu campaigns, %llu rounds)\n", path.c_str(),
                static_cast<unsigned long long>(traces->size()),
                static_cast<unsigned long long>(rounds));
  }
  const Status coverage = CheckGateCoverage(active_gates, kinds_seen);
  if (!coverage.ok()) {
    std::fprintf(stderr, "%s\n", coverage.message().c_str());
    ++failures;
  }
  return failures == 0 ? 0 : 1;
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
      {"baseline", "tolerance", "min-annotate-speedup",
       "max-metrics-overhead", "min-trace-threads", "max-serve-p99",
       "min-serve-qps", "max-open-ms", "min-build-mtriples-per-sec",
       "min-async-speedup", "max-fleet-ci-width", "min-fleet-fairness",
       "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 1;
  }
  if (flags.GetBool("help", false) || flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: kgacc_trace_check [--baseline DIR] "
                 "[--tolerance 0.15] [--min-annotate-speedup X] "
                 "[--max-metrics-overhead F] [--min-trace-threads N] "
                 "[--max-serve-p99 MS] [--min-serve-qps Q] "
                 "[--max-open-ms MS] [--min-build-mtriples-per-sec R] "
                 "[--min-async-speedup X] [--max-fleet-ci-width W] "
                 "[--min-fleet-fairness J] TRACE.json [...]\n");
    return flags.GetBool("help", false) ? 0 : 1;
  }
  return Run(flags);
}
