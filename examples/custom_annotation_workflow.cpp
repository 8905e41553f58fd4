// End-to-end crowdsourcing round trip on a file-based knowledge graph:
//
//   1. load a TSV knowledge graph (subject \t predicate \t object);
//   2. draw a TWCS sample and export it as Evaluation Tasks — triples
//      grouped by subject, the unit a human annotator works on (Section 3);
//   3. "receive" the annotations (simulated here by a noisy annotator —
//      real crowds are imperfect, so we model a 3% label-flip rate);
//   4. feed labels to the estimator and report accuracy with its CI,
//      plus Wilson/empirical intervals for near-boundary accuracies.
//
// Run: ./build/examples/custom_annotation_workflow [graph.tsv]
// Without an argument a small built-in movie graph is used.

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "kgaccuracy.h"

namespace {

constexpr const char* kBuiltinGraph =
    "# a tiny slice of a movie KG: subject \\t predicate \\t object\n"
    "michael_jordan\twasBornIn\tbrooklyn\n"
    "michael_jordan\tbirthDate\t1963-02-17\n"
    "michael_jordan\tperformedIn\tspace_jam\n"
    "michael_jordan\tgraduatedFrom\tunc\n"
    "michael_jordan\thasChild\tmarcus_jordan\n"
    "space_jam\treleaseDate\t1996\n"
    "space_jam\tdirectedBy\tjoe_pytka\n"
    "space_jam\tduration\t88min\n"
    "vanessa_williams\tperformedIn\tsoul_food\n"
    "vanessa_williams\twasBornIn\tnew_york\n"
    "twilight\treleaseDate\t2008\n"
    "twilight\tdirectedBy\tcatherine_hardwicke\n"
    "friends\tdirectedBy\tlewis_gilbert\n"
    "friends\tduration\t1h6min\n"
    "the_walking_dead\tduration\t1h6min\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace kgacc;

  // --- 1. Load the graph. --------------------------------------------------
  SymbolTable symbols;
  KnowledgeGraph kg;
  Status status;
  if (argc > 1) {
    status = LoadTsvFile(argv[1], &symbols, &kg);
  } else {
    std::istringstream builtin(kBuiltinGraph);
    status = LoadTsv(builtin, &symbols, &kg);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "failed to load graph: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("loaded %llu triples over %llu entities\n",
              static_cast<unsigned long long>(kg.TotalTriples()),
              static_cast<unsigned long long>(kg.NumClusters()));

  // --- 2. Draw a TWCS sample and export evaluation tasks. ------------------
  Rng rng(2025);
  TwcsUnitSampler sampler(kg, /*m=*/3);
  std::vector<TripleRef> sample;
  for (const SampleUnit& draw :
       sampler.NextBatch(std::min<uint64_t>(kg.NumClusters(), 8), rng)) {
    for (uint64_t offset : draw.offsets) {
      sample.push_back(TripleRef{draw.cluster, offset});
    }
  }
  const std::vector<EvaluationTask> tasks = GroupBySubject(sample);

  std::printf("\nexported evaluation tasks (what an annotator receives):\n");
  for (const EvaluationTask& task : tasks) {
    const EntityCluster& cluster = kg.Cluster(task.cluster);
    std::printf("  Task: identify entity '%s', then validate:\n",
                symbols.Name(cluster.subject).c_str());
    // With-replacement draws can repeat an offset; show each triple once
    // (the annotator labels it once — re-draws reuse the cached label).
    std::vector<uint64_t> unique_offsets = task.offsets;
    std::sort(unique_offsets.begin(), unique_offsets.end());
    unique_offsets.erase(
        std::unique(unique_offsets.begin(), unique_offsets.end()),
        unique_offsets.end());
    for (uint64_t offset : unique_offsets) {
      const Triple& t = kg.At(TripleRef{task.cluster, offset});
      std::printf("    (%s, %s, %s)\n", symbols.Name(t.subject).c_str(),
                  symbols.Name(t.predicate).c_str(),
                  symbols.Name(t.object.id).c_str());
    }
  }

  // --- 3. Annotation round (simulated noisy crowd). ------------------------
  // Ground truth for the demo: ~85% of facts are correct, decided per triple.
  const PerClusterBernoulliOracle truth =
      MakeRandomErrorOracle(kg.NumClusters(), 0.85, /*seed=*/5);
  const CostModel cost_model{.c1_seconds = 45.0, .c2_seconds = 25.0};
  SimulatedAnnotator crowd(&truth, cost_model,
                           {.noise_rate = 0.03, .seed = 77});

  TwcsEstimator estimator;
  for (const EvaluationTask& task : tasks) {
    const std::vector<uint8_t> labels = crowd.AnnotateTask(task);
    uint64_t correct = 0;
    for (uint8_t l : labels) correct += l;
    estimator.AddDraw(correct, labels.size());
  }

  // --- 4. Report. -----------------------------------------------------------
  const Estimate estimate = estimator.Current();
  std::printf("\nestimate after %llu tasks: %s (normal 95%% CI [%s, %s])\n",
              static_cast<unsigned long long>(tasks.size()),
              FormatPercent(estimate.mean, 1).c_str(),
              FormatPercent(estimate.CiLower(0.05), 1).c_str(),
              FormatPercent(estimate.CiUpper(0.05), 1).c_str());

  // For accuracies near 100% the Wald interval degenerates; Wilson behaves.
  const ConfidenceInterval wilson = WilsonInterval(
      static_cast<uint64_t>(estimate.mean * static_cast<double>(sample.size())),
      sample.size(), 0.05);
  std::printf("Wilson interval on the pooled triples: [%s, %s]\n",
              FormatPercent(wilson.lower, 1).c_str(),
              FormatPercent(wilson.upper, 1).c_str());

  std::printf("annotation bill: %llu entities, %llu triples -> %s\n",
              static_cast<unsigned long long>(crowd.ledger().entities_identified),
              static_cast<unsigned long long>(crowd.ledger().triples_annotated),
              FormatDuration(crowd.ElapsedSeconds()).c_str());
  return 0;
}
