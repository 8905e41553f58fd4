#pragma once

#include <memory>
#include <string>

#include "kg/cluster_population.h"
#include "kg/kg_view.h"
#include "kg/knowledge_graph.h"
#include "kg/store/mapped_graph.h"
#include "kg/symbol_table.h"
#include "kg/triple_view.h"
#include "labels/synthetic_oracle.h"
#include "labels/truth_oracle.h"

namespace kgacc {

/// A benchmark dataset: a clustered graph plus a ground-truth label source.
///
/// These are seeded statistical reconstructions of the paper's corpora
/// (Table 3) — the original NELL/YAGO MTurk label sets and the Amazon MOVIE
/// graph are not redistributable, so we match their published marginals:
/// entity/triple counts, cluster-size skew, overall gold accuracy and the
/// size-accuracy correlation of Figure 3. All estimators consume only
/// cluster sizes and 0/1 labels, so these marginals determine sampling
/// behaviour. See DESIGN.md ("Substitutions").
struct Dataset {
  std::string name;

  /// Exactly one backing view is set: a materialized graph (NELL, YAGO,
  /// loaded TSV), a zero-copy mmap-backed store file (.kgstore), or a
  /// size-only population (MOVIE family). `mapped` is declared before
  /// `oracle` on purpose — a MappedLabelOracle borrows the mapping and must
  /// be destroyed first (members die in reverse declaration order).
  std::unique_ptr<KnowledgeGraph> graph;
  std::unique_ptr<MappedGraph> mapped;
  std::unique_ptr<ClusterPopulation> population;

  std::unique_ptr<TruthOracle> oracle;

  /// The names behind a loaded TSV graph's ids (null for the others; a
  /// .kgstore may embed its own, MappedGraph::SymbolName).
  std::unique_ptr<SymbolTable> symbols;

  /// Set when `oracle` is a PerClusterBernoulliOracle (synthetic labels);
  /// grants access to per-cluster expected accuracies.
  const PerClusterBernoulliOracle* bernoulli = nullptr;

  const KgView& View() const {
    if (graph) return *graph;
    if (mapped) return *mapped;
    return *population;
  }

  /// Addressable triples when the backing view has them (materialized or
  /// mmap-backed), nullptr for size-only populations. Gate for the designs
  /// and modes that touch triple content (kgeval, per-predicate).
  const TripleView* Triples() const {
    if (graph) return graph.get();
    if (mapped) return mapped.get();
    return nullptr;
  }
};

/// NELL-sports sample: 817 entities / 1,860 triples / gold accuracy ~91%,
/// heavily long-tailed cluster sizes (>98% below 5 triples; Fig 3-1).
/// Materialized with sports-flavoured predicates for the KGEval baseline.
Dataset MakeNell(uint64_t seed);

/// YAGO2 sample: 822 entities / 1,386 triples / gold accuracy ~99%,
/// small clusters (average 1.7).
Dataset MakeYago(uint64_t seed);

/// MOVIE (IMDb + WikiData): 288,770 entities / 2,653,870 triples /
/// accuracy ~90%, heavy-tailed cluster sizes (average 9.2). Size-only.
Dataset MakeMovie(uint64_t seed);

/// MOVIE-SYN: the MOVIE graph with Binomial Mixture Model labels (Eq 15).
Dataset MakeMovieSyn(const BmmParams& params, uint64_t seed);

/// MOVIE-SYN with Random Error Model labels at the given accuracy.
Dataset MakeMovieRem(double accuracy, uint64_t seed);

/// MOVIE-FULL profile scaled to `num_triples` (paper full size: 130,591,799
/// triples over 14,495,142 entities; pass a smaller target for the Fig 7
/// size sweep). REM labels with the given accuracy.
Dataset MakeMovieFull(uint64_t num_triples, double accuracy, uint64_t seed);

/// Streams a MOVIE-FULL profile graph of `num_triples` triples directly into
/// a `kgacc-kgstore-v1` file at `path` without materializing it — cluster
/// structure and embedded gold labels match MakeMovieFull(num_triples,
/// accuracy, seed) exactly, so a MappedGraph over the file is a drop-in
/// replacement for the size-only population (same sizes, same labels).
Status BuildMovieFullStore(const std::string& path, uint64_t num_triples,
                           double accuracy, uint64_t seed);

}  // namespace kgacc
