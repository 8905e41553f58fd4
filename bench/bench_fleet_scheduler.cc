// bench_fleet_scheduler — multi-tenant campaign scheduler under a shared
// annotation budget (the fleet-level analogue of the paper's cost/quality
// experiments: Eq 4 cost per round, CI width as quality).
//
// Runs the same tenant fleet under each scheduling policy at the same
// budget, then compares fleet mean/max CI width and Jain's fairness index
// over per-tenant spend. The fleet mixes designs, MoE targets and — key for
// the greedy-ci policy — co-tenant campaigns that share a graph, design and
// sampling seed, whose rounds are free after the first tenant bought the
// labels (cross-campaign reuse).
//
// Emits a kgacc-bench-v2 artifact (BENCH_fleet_scheduler.json) whose
// fleet_scheduler.* metrics `kgacc_trace_check --gate` reads, plus one
// fleet_grants_<policy>.log per policy: the GrantRecord::ToLine rendering
// of the grant sequence, byte-identical across runs with the same flags
// (CI's fleet-smoke job compares two runs to pin scheduler determinism).
// Exits non-zero when a policy run breaks the fleet's accounting: no
// grants, tenant spends that do not sum to the fleet's, or a CI width
// outside [0, 1].
//
// Flags: --tenants N (8), --graphs G (2), --budget SECONDS (40000),
// --max-resident K (0 = unlimited), --policies a,b,c (all three),
// --seed S (KGACC_SEED fallback), --out PATH.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/telemetry.h"
#include "datasets/datasets.h"
#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"
#include "serve/tenant.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgacc::serve {
namespace {

constexpr const char* kUsage = R"(bench_fleet_scheduler — fleet scheduling bench

Runs one tenant fleet under each scheduling policy at the same annotation
budget and writes a kgacc-bench-v2 artifact plus per-policy grant logs.

Flags:
  --tenants N       fleet size                                       [8]
  --graphs G        shared graphs (tenant i evaluates graph i mod G) [2]
  --budget SECONDS  fleet annotation budget per policy run           [40000]
  --max-resident K  residency cap (exercises evict/resume; 0 = off)  [0]
  --policies CSV    subset of greedy-ci,round-robin,weighted-fair    [all]
  --seed S          base seed (env KGACC_SEED is the fallback)
  --out PATH        artifact path [$KGACC_BENCH_JSON_DIR/BENCH_fleet_scheduler.json]
  --help            this message
)";

/// A synthetic population graph for the fleet: long-tail cluster sizes with
/// per-cluster Bernoulli accuracies (the Random-Error/BMM shape every
/// estimator consumes — only sizes and 0/1 labels matter).
std::shared_ptr<const Dataset> MakeFleetGraph(const std::string& name,
                                              uint64_t num_clusters,
                                              uint32_t max_size,
                                              double accuracy, double spread,
                                              uint64_t seed) {
  Rng rng(seed);
  auto population = std::make_unique<ClusterPopulation>();
  auto oracle =
      std::make_unique<PerClusterBernoulliOracle>(HashCombine(seed, 0x7e57));
  for (uint64_t i = 0; i < num_clusters; ++i) {
    const uint32_t size =
        1 + static_cast<uint32_t>(rng.UniformIndex(max_size));
    double p = accuracy + spread * (rng.UniformDouble() - 0.5) * 2.0;
    p = std::clamp(p, 0.0, 1.0);
    population->Append(size);
    oracle->Append(p);
  }
  auto dataset = std::make_shared<Dataset>();
  dataset->name = name;
  dataset->population = std::move(population);
  dataset->bernoulli = oracle.get();
  dataset->oracle = std::move(oracle);
  return dataset;
}

/// The fleet script: tenant i evaluates graph (i mod G). The first two
/// tenants of every graph are identical campaigns (same design, options and
/// sampling seed) — the second one's labels are all cross-campaign reuse, so
/// its rounds charge ~0 against the budget. Later tenants alternate cheap
/// (small-batch) and expensive (large-batch) rounds and vary design and MoE
/// target — the cost/width heterogeneity the greedy-ci policy exploits and
/// round-robin ignores.
TenantConfig MakeTenantConfig(uint64_t index, uint64_t num_graphs,
                              uint64_t seed) {
  static const char* kDesigns[] = {"twcs", "srs", "wcs"};
  static const double kMoe[] = {0.03, 0.04, 0.05, 0.06};
  const uint64_t graph = index % num_graphs;
  const uint64_t slot = index / num_graphs;  // position within its graph.
  TenantConfig config;
  config.id = StrFormat("t%02llu", static_cast<unsigned long long>(index));
  config.graph = StrFormat("fleet-g%llu",
                           static_cast<unsigned long long>(graph));
  if (slot < 2) {
    // Reuse pair: slot 0 pays, slot 1 rides free.
    config.design = "twcs";
    config.options.moe_target = 0.03;
    config.options.seed = HashCombine(seed, 1000 + graph);
  } else {
    config.design = kDesigns[slot % 3];
    config.options.moe_target = kMoe[slot % 4];
    config.options.batch_units = (slot % 2 == 0) ? 5 : 20;
    config.options.seed = HashCombine(seed, 2000 + index);
  }
  config.options.max_units = 20000;
  config.annotator.seed = HashCombine(seed, 3000 + index);
  return config;
}

struct PolicyOutcome {
  std::string policy;
  uint64_t grants = 0;
  double spent_seconds = 0.0;
  double mean_ci_width = 0.0;
  double max_ci_width = 0.0;
  double budget_avg_ci_width = 1.0;
  double jain_fairness = 1.0;
  std::vector<TenantStatus> tenants;
  std::vector<GrantRecord> grant_log;
};

/// Fleet mean CI width averaged over the budget actually spent: after each
/// grant, the fleet mean width (never-granted tenants count as 1.0) is
/// weighted by that grant's charge. Integrating the whole spend trajectory
/// makes this the stable convergence-speed metric — a policy that buys its
/// width reductions early and cheaply scores lower — where the final-width
/// snapshot is one noisy draw.
double BudgetAveragedWidth(const std::vector<GrantRecord>& grant_log,
                           uint64_t num_tenants) {
  std::map<std::string, double> width;
  double area = 0.0;
  double total = 0.0;
  for (const GrantRecord& record : grant_log) {
    width[record.tenant] = record.ci_width;
    double sum = 0.0;
    for (const auto& [id, w] : width) sum += w;
    sum += static_cast<double>(num_tenants - width.size());  // unseen = 1.0.
    const double fleet_mean = sum / static_cast<double>(num_tenants);
    area += fleet_mean * record.charged_seconds;
    total += record.charged_seconds;
  }
  return total > 0.0 ? area / total : 1.0;
}

double JainIndex(const std::vector<TenantStatus>& tenants) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const TenantStatus& t : tenants) {
    sum += t.spent_seconds;
    sum_sq += t.spent_seconds * t.spent_seconds;
  }
  if (sum_sq <= 0.0) return 1.0;  // nobody charged: perfectly fair.
  return (sum * sum) / (static_cast<double>(tenants.size()) * sum_sq);
}

PolicyOutcome RunPolicy(CampaignScheduler::Policy policy, GraphStore* graphs,
                        uint64_t num_tenants, uint64_t num_graphs,
                        double budget, uint64_t max_resident, uint64_t seed) {
  CampaignScheduler::Options options;
  options.policy = policy;
  options.budget_seconds = budget;
  options.max_resident_sessions = max_resident;
  CampaignScheduler scheduler(graphs, options);
  for (uint64_t i = 0; i < num_tenants; ++i) {
    Result<std::string> added =
        scheduler.AddTenant(MakeTenantConfig(i, num_graphs, seed));
    if (!added.ok()) {
      std::fprintf(stderr, "error: add tenant %llu: %s\n",
                   static_cast<unsigned long long>(i),
                   added.status().message().c_str());
      std::exit(1);
    }
  }
  // Drive on this thread (no background loop): the grant sequence is then a
  // pure function of (policy, seed, arrival script) — the determinism the
  // grant-log byte-compare pins.
  scheduler.RunUntilIdle();

  PolicyOutcome out;
  out.policy = CampaignScheduler::PolicyName(policy);
  out.spent_seconds = scheduler.SpentSeconds();
  out.tenants = scheduler.Statuses();
  out.grant_log = scheduler.GrantLog();
  out.grants = out.grant_log.size();
  double sum_width = 0.0;
  for (const TenantStatus& t : out.tenants) {
    sum_width += t.ci_width;
    out.max_ci_width = std::max(out.max_ci_width, t.ci_width);
  }
  out.mean_ci_width =
      out.tenants.empty() ? 0.0
                          : sum_width / static_cast<double>(out.tenants.size());
  out.budget_avg_ci_width = BudgetAveragedWidth(out.grant_log, num_tenants);
  out.jain_fairness = JainIndex(out.tenants);
  return out;
}

void WriteGrantLog(const PolicyOutcome& outcome) {
  const std::string path = kgacc::bench::ArtifactPath(
      StrFormat("fleet_grants_%s.log", outcome.policy.c_str()));
  std::ofstream out(path, std::ios::trunc);
  for (const GrantRecord& record : outcome.grant_log) {
    out << record.ToLine() << "\n";
  }
  std::printf("wrote %s (%zu grants)\n", path.c_str(),
              outcome.grant_log.size());
}

/// The accounting every policy run must satisfy: at least one grant,
/// tenant spends summing to the fleet's spend, CI widths in [0, 1].
bool CheckOutcome(const PolicyOutcome& outcome) {
  double tenant_spend = 0.0;
  bool widths_ok = true;
  for (const TenantStatus& t : outcome.tenants) {
    tenant_spend += t.spent_seconds;
    widths_ok = widths_ok && t.ci_width >= 0.0 && t.ci_width <= 1.0;
  }
  const double slack = 1e-6 * std::max(1.0, outcome.spent_seconds);
  if (outcome.grants == 0 || !widths_ok ||
      std::abs(tenant_spend - outcome.spent_seconds) > slack) {
    std::fprintf(stderr,
                 "error: %s: %llu grants, tenant spend %.6f vs fleet spend "
                 "%.6f, CI widths %s\n",
                 outcome.policy.c_str(),
                 static_cast<unsigned long long>(outcome.grants),
                 tenant_spend, outcome.spent_seconds,
                 widths_ok ? "in [0, 1]" : "outside [0, 1]");
    return false;
  }
  return true;
}

Status WriteArtifact(const std::string& path,
                     const std::vector<PolicyOutcome>& outcomes,
                     uint64_t num_tenants, uint64_t num_graphs, double budget,
                     uint64_t seed) {
  BenchArtifact artifact("fleet_scheduler");
  artifact.config()
      .Key("seed").Uint(seed)
      .Key("num_tenants").Uint(num_tenants)
      .Key("num_graphs").Uint(num_graphs)
      .Key("budget_seconds").Number(budget);
  std::map<std::string, const PolicyOutcome*> by_policy;
  for (const PolicyOutcome& outcome : outcomes) {
    by_policy[outcome.policy] = &outcome;
    // Per-tenant CI-width trajectory vs own cumulative charged seconds,
    // reconstructed from the grant log (tools/plot_bench.py renders these).
    std::map<std::string, std::vector<std::pair<double, double>>> trajectories;
    std::map<std::string, double> charged;
    for (const GrantRecord& record : outcome.grant_log) {
      charged[record.tenant] += record.charged_seconds;
      trajectories[record.tenant].emplace_back(charged[record.tenant],
                                               record.ci_width);
    }
    JsonWriter& json = artifact.rows();
    json.BeginObject();
    json.Key("policy").String(outcome.policy);
    json.Key("grants").Uint(outcome.grants);
    json.Key("spent_seconds").Number(outcome.spent_seconds);
    json.Key("mean_ci_width").Number(outcome.mean_ci_width);
    json.Key("max_ci_width").Number(outcome.max_ci_width);
    json.Key("budget_avg_ci_width").Number(outcome.budget_avg_ci_width);
    json.Key("jain_fairness").Number(outcome.jain_fairness);
    json.Key("tenants").BeginArray();
    for (const TenantStatus& t : outcome.tenants) {
      json.BeginObject();
      json.Key("tenant").String(t.id);
      json.Key("graph").String(t.graph);
      json.Key("design").String(t.design);
      json.Key("state").String(TenantStateName(t.state));
      json.Key("spent_seconds").Number(t.spent_seconds);
      json.Key("cost_share")
          .Number(outcome.spent_seconds > 0.0
                      ? t.spent_seconds / outcome.spent_seconds
                      : 0.0);
      json.Key("rounds").Uint(t.rounds);
      json.Key("grants").Uint(t.grants);
      json.Key("ci_width").Number(t.ci_width);
      json.Key("converged").Bool(t.converged);
      json.Key("trajectory").BeginArray();
      for (const auto& [spent, width] : trajectories[t.id]) {
        json.BeginArray().Number(spent).Number(width).EndArray();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  // The gated claims: the greedy fleet's final width, the weighted-fair
  // fleet's fairness, and greedy-ci against round-robin on budget-averaged
  // width at equal budget (< 1 means greedy narrows the fleet faster).
  const auto greedy = by_policy.find("greedy-ci");
  const auto fair = by_policy.find("weighted-fair");
  const auto round_robin = by_policy.find("round-robin");
  if (greedy != by_policy.end()) {
    artifact.SetMetric("greedy_mean_ci_width", greedy->second->mean_ci_width);
  }
  if (fair != by_policy.end()) {
    artifact.SetMetric("weighted_fair_jain", fair->second->jain_fairness);
  }
  if (greedy != by_policy.end() && round_robin != by_policy.end()) {
    artifact.SetMetric("greedy_over_round_robin_avg_ci_width",
                       greedy->second->budget_avg_ci_width /
                           round_robin->second->budget_avg_ci_width);
  }
  KGACC_RETURN_IF_ERROR(artifact.Write(path));
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
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
  const Status valid = flags.Validate({"tenants", "graphs", "budget",
                                       "max-resident", "policies", "seed",
                                       "out", "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n%s", valid.message().c_str(), kUsage);
    return 2;
  }
  const uint64_t num_tenants =
      std::max<uint64_t>(flags.GetUint64("tenants", 8).value(), 1);
  const uint64_t num_graphs = std::clamp<uint64_t>(
      flags.GetUint64("graphs", 2).value(), 1, num_tenants);
  const double budget = flags.GetDouble("budget", 40000.0).value();
  const uint64_t max_resident = flags.GetUint64("max-resident", 0).value();
  const std::string policies_csv =
      flags.GetString("policies", "greedy-ci,round-robin,weighted-fair");
  const uint64_t seed = flags.Has("seed")
                            ? flags.GetUint64("seed", 0).value()
                            : kgacc::bench::Seed();
  const std::string out_path = flags.GetString(
      "out", kgacc::bench::ArtifactPath("BENCH_fleet_scheduler.json"));
  if (budget <= 0.0) {
    std::fprintf(stderr, "error: --budget must be > 0\n");
    return 2;
  }

  std::vector<CampaignScheduler::Policy> policies;
  for (const std::string_view name : SplitString(policies_csv, ',')) {
    const std::string trimmed(StripWhitespace(name));
    if (trimmed.empty()) continue;
    Result<CampaignScheduler::Policy> policy =
        CampaignScheduler::ParsePolicy(trimmed);
    if (!policy.ok()) {
      std::fprintf(stderr, "error: %s\n", policy.status().message().c_str());
      return 2;
    }
    policies.push_back(*policy);
  }
  if (policies.empty()) {
    std::fprintf(stderr, "error: --policies selected nothing\n");
    return 2;
  }

  kgacc::bench::Banner(StrFormat(
      "Fleet scheduler: %llu tenants / %llu graphs / budget %.0fs",
      static_cast<unsigned long long>(num_tenants),
      static_cast<unsigned long long>(num_graphs), budget));

  // Every policy run sees the same graphs (datasets are immutable).
  GraphStore graphs;
  for (uint64_t g = 0; g < num_graphs; ++g) {
    const std::string name =
        StrFormat("fleet-g%llu", static_cast<unsigned long long>(g));
    graphs.Put(name, MakeFleetGraph(name, 2000, 12, 0.85, 0.2,
                                    HashCombine(seed, 100 + g)));
  }

  std::vector<PolicyOutcome> outcomes;
  std::printf("%-13s %7s %12s %12s %12s %12s %8s\n", "policy", "grants",
              "spent (s)", "mean CI", "max CI", "avg CI", "Jain");
  kgacc::bench::Rule();
  for (const CampaignScheduler::Policy policy : policies) {
    PolicyOutcome outcome = RunPolicy(policy, &graphs, num_tenants,
                                      num_graphs, budget, max_resident, seed);
    std::printf("%-13s %7llu %12.0f %12.4f %12.4f %12.4f %8.4f\n",
                outcome.policy.c_str(),
                static_cast<unsigned long long>(outcome.grants),
                outcome.spent_seconds, outcome.mean_ci_width,
                outcome.max_ci_width, outcome.budget_avg_ci_width,
                outcome.jain_fairness);
    WriteGrantLog(outcome);
    outcomes.push_back(std::move(outcome));
  }
  const Status written =
      WriteArtifact(out_path, outcomes, num_tenants, num_graphs, budget, seed);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return std::all_of(outcomes.begin(), outcomes.end(), CheckOutcome) ? 0 : 1;
}

}  // namespace
}  // namespace kgacc::serve

int main(int argc, char** argv) { return kgacc::serve::Main(argc, argv); }
