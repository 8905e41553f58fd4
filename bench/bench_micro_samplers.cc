// Machine-time microbenchmarks (google-benchmark) for the sampling
// primitives, backing Table 6's "machine time < 1 second" claim for TWCS
// sample generation at MOVIE scale and beyond, RS's reservoir campaigns and
// updates, whose cost must not grow with the base, and an rcs campaign,
// whose whole-cluster rounds are mostly annotation bookkeeping.

#include <benchmark/benchmark.h>

#include <span>

#include "core/design_registry.h"
#include "core/reservoir_incremental.h"
#include "core/stratified_source.h"
#include "kg/cluster_population.h"
#include "kg/generator.h"
#include "sampling/srs.h"
#include "sampling/stratum_index.h"
#include "sampling/unit_samplers.h"
#include "labels/annotator.h"
#include "labels/synthetic_oracle.h"
#include "util/rng.h"

namespace kgacc {
namespace {

ClusterPopulation MakePopulation(uint64_t clusters) {
  Rng rng(99);
  std::vector<uint32_t> sizes =
      GenerateLogNormalSizes(clusters, 1.55, 1.1, 5000, rng);
  return ClusterPopulation(std::move(sizes));
}

// What a campaign pays for its size-weighted index: the population owns the
// triple-offset column, so the index borrows it in O(1).
void BM_TriplePrefixIndexBuild(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(state.range(0));
  for (auto _ : state) {
    TriplePrefixIndex index(pop);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TriplePrefixIndexBuild)->Arg(10000)->Arg(288770)->Arg(2000000);

// Size strata (H = 4) with a stratum id per cluster, as explicit-strata
// callers cut them, then the block-prefix rank index built from those ids.
void BM_SizeStrata(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(state.range(0));
  for (auto _ : state) {
    Strata strata = SizeStrata(pop, 4);
    benchmark::DoNotOptimize(strata);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SizeStrata)->Arg(10000)->Arg(288770)->Arg(2000000);

void BM_StratumIndexBuild(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(state.range(0));
  const Strata strata = SizeStrata(pop, 4);
  for (auto _ : state) {
    StratumIndex index(pop, strata.stratum_of, strata.NumStrata());
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StratumIndexBuild)->Arg(10000)->Arg(288770)->Arg(2000000);

// twcs+strat's one O(N) set-up: the strata cut from one counting pass over
// the column, then the index built in a second that writes each id.
void BM_SizeStratumIndexBuild(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(state.range(0));
  for (auto _ : state) {
    const SizeStratifier sizes(pop.TripleOffsets(), 4);
    StratumIndex index(TriplePrefixIndex(pop), sizes);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SizeStratumIndexBuild)->Arg(10000)->Arg(288770)->Arg(2000000);

void BM_SizeWeightedDraw(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(288770);
  const TriplePrefixIndex index(pop);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.SizeWeightedCluster(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SizeWeightedDraw);

void BM_TwcsSampleGeneration(benchmark::State& state) {
  // Full TWCS first+second stage for a Table 4-sized campaign (n draws).
  const ClusterPopulation pop = MakePopulation(288770);
  TwcsUnitSampler sampler(pop, 5);
  Rng rng(11);
  for (auto _ : state) {
    auto batch = sampler.NextBatch(state.range(0), rng);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwcsSampleGeneration)->Arg(30)->Arg(100)->Arg(1000);

void BM_SrsBatch(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(288770);
  Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    SrsUnitSampler sampler(pop);  // fresh draw history per iteration.
    state.ResumeTiming();
    auto batch = sampler.NextBatch(state.range(0), rng);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SrsBatch)->Arg(200);

void BM_SecondStageSrs(benchmark::State& state) {
  Rng rng(19);
  for (auto _ : state) {
    auto offsets = SampleIndicesWithoutReplacement(5000, state.range(0), rng);
    benchmark::DoNotOptimize(offsets);
  }
}
BENCHMARK(BM_SecondStageSrs)->Arg(5)->Arg(50);

/// The first `n` clusters of a fixed population: an update "appends" its
/// batch by raising n, so each iteration starts from the same base without
/// copying it.
class GrowingView final : public KgView {
 public:
  GrowingView(const ClusterPopulation& full, uint64_t n) : full_(full), n_(n) {}
  void Grow(uint64_t n) { n_ = n; }

  uint64_t NumClusters() const override { return n_; }
  uint64_t ClusterSize(uint64_t cluster) const override {
    return full_.ClusterSize(cluster);
  }
  uint64_t TotalTriples() const override { return full_.TripleOffsets()[n_]; }
  std::span<const uint64_t> TripleOffsets() const override {
    return full_.TripleOffsets().first(n_ + 1);
  }

 private:
  const ClusterPopulation& full_;
  uint64_t n_;
};

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

EvaluationOptions CampaignOptions(uint64_t iteration) {
  EvaluationOptions options;
  options.seed = HashCombine(0x7e5e, iteration);
  return options;
}

// One rs campaign on the base: the race draws ~capacity arrivals, whatever
// the population size.
void BM_ReservoirInitialize(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(state.range(0));
  const PerClusterBernoulliOracle oracle =
      MakeRandomErrorOracle(pop.NumClusters(), 0.9, 5);
  uint64_t iteration = 0;
  for (auto _ : state) {
    SimulatedAnnotator annotator(&oracle, kCost);
    ReservoirIncrementalEvaluator rs(&pop, &annotator,
                                     CampaignOptions(++iteration));
    benchmark::DoNotOptimize(rs.Initialize());
  }
}
BENCHMARK(BM_ReservoirInitialize)
    ->Arg(10000)
    ->Arg(288770)
    ->Arg(2000000)
    ->Unit(benchmark::kMicrosecond);

// One update of 1% of the base's clusters after Initialize (untimed): it
// races only its own clusters over the reservoir's horizon.
void BM_ReservoirUpdate(benchmark::State& state) {
  const uint64_t base = state.range(0);
  const uint64_t batch = base / 100;
  const ClusterPopulation pop = MakePopulation(base + batch);
  const PerClusterBernoulliOracle oracle =
      MakeRandomErrorOracle(pop.NumClusters(), 0.9, 5);
  uint64_t iteration = 0;
  for (auto _ : state) {
    state.PauseTiming();
    GrowingView view(pop, base);
    SimulatedAnnotator annotator(&oracle, kCost);
    ReservoirIncrementalEvaluator rs(&view, &annotator,
                                     CampaignOptions(++iteration));
    rs.Initialize();
    view.Grow(base + batch);
    state.ResumeTiming();
    benchmark::DoNotOptimize(rs.ApplyUpdate(base, batch));
  }
}
BENCHMARK(BM_ReservoirUpdate)
    ->Arg(10000)
    ->Arg(288770)
    ->Arg(2000000)
    ->Unit(benchmark::kMicrosecond);

// One registry rcs campaign with a fresh annotator: uniform whole clusters,
// so every round marks each cluster's triples in the annotation books.
void BM_RcsCampaign(benchmark::State& state) {
  const ClusterPopulation pop = MakePopulation(state.range(0));
  const PerClusterBernoulliOracle oracle =
      MakeRandomErrorOracle(pop.NumClusters(), 0.9, 5);
  uint64_t iteration = 0;
  for (auto _ : state) {
    SimulatedAnnotator annotator(&oracle, kCost);
    benchmark::DoNotOptimize(DesignRegistry::Global().Run(
        "rcs", pop, &annotator, CampaignOptions(++iteration)));
  }
}
BENCHMARK(BM_RcsCampaign)->Arg(288770)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kgacc

BENCHMARK_MAIN();
