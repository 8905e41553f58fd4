// Reproduces Figure 1: cumulative evaluation time of a triple-level task
// (50 triples from 50 distinct entities) vs an entity-level task (50 triples
// from ~11 entity clusters, at most 5 per cluster) on MOVIE.
//
// Paper shape: triple-level grows ~linearly at c1+c2 per triple; the
// entity-level curve is markedly cheaper, with the expensive steps at each
// cluster's first triple.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cost/cost_model.h"
#include "datasets/datasets.h"
#include "sampling/unit_samplers.h"
#include "sampling/srs.h"
#include "util/rng.h"

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::Seed();
  const CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};

  const Dataset movie = MakeMovie(seed);
  Rng rng(seed);

  // Triple-level task: 50 random triples, forced onto distinct subjects by
  // redrawing collisions (the paper ensures distinct subject ids).
  std::vector<TripleRef> triple_level;
  {
    SrsUnitSampler sampler(movie.View());
    std::vector<bool> seen_cluster;
    while (triple_level.size() < 50) {
      for (const SampleUnit& unit : sampler.NextBatch(10, rng)) {
        const TripleRef ref{unit.cluster, unit.offsets[0]};
        if (ref.cluster >= seen_cluster.size()) {
          seen_cluster.resize(ref.cluster + 1, false);
        }
        if (!seen_cluster[ref.cluster] && triple_level.size() < 50) {
          seen_cluster[ref.cluster] = true;
          triple_level.push_back(ref);
        }
      }
    }
  }

  // Entity-level task: random clusters, up to 5 triples each, 50 in total
  // (11 clusters when all contribute 4-5 triples, as in the paper).
  std::vector<TripleRef> entity_level;
  std::vector<size_t> cluster_first_index;  // positions of per-cluster firsts.
  {
    TwcsUnitSampler sampler(movie.View(), 5);
    while (entity_level.size() < 50) {
      for (const SampleUnit& draw : sampler.NextBatch(1, rng)) {
        cluster_first_index.push_back(entity_level.size());
        for (uint64_t offset : draw.offsets) {
          if (entity_level.size() < 50) {
            entity_level.push_back(TripleRef{draw.cluster, offset});
          }
        }
      }
    }
  }

  const std::vector<double> triple_times =
      CumulativeAnnotationSeconds(triple_level, cost);
  const std::vector<double> entity_times =
      CumulativeAnnotationSeconds(entity_level, cost);

  bench::Banner("Figure 1: cumulative annotation time on MOVIE (seconds)");
  std::printf("%8s %16s %16s\n", "triple#", "triple-level", "entity-level");
  bench::Rule();
  for (size_t i = 0; i < 50; ++i) {
    const bool is_first =
        std::find(cluster_first_index.begin(), cluster_first_index.end(), i) !=
        cluster_first_index.end();
    std::printf("%8zu %16.0f %14.0f %s\n", i + 1, triple_times[i],
                entity_times[i], is_first ? "*" : "");
  }
  std::printf("\n(* = first triple of an entity cluster: the solid-triangle "
              "points of Fig 1)\n");
  std::printf("Totals: triple-level %s, entity-level %s -> %.0f%% cheaper\n",
              FormatDuration(triple_times.back()).c_str(),
              FormatDuration(entity_times.back()).c_str(),
              (1.0 - entity_times.back() / triple_times.back()) * 100.0);
  std::printf("Paper shape: entity-level task takes roughly half the "
              "triple-level time.\n");
  return 0;
}
