#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace kgacc {

/// Minimal structural view of a clustered knowledge graph that all sampling
/// designs consume: how many entity clusters there are and how many triples
/// each one holds. Implementations:
///   - KnowledgeGraph: fully materialized triples (NELL/YAGO/loaded data);
///   - ClusterPopulation: sizes only, for very large synthetic graphs
///     (MOVIE-FULL at 130M triples) where triples are labeled lazily;
///   - MappedGraph (kg/store): a memory-mapped kgacc-kgstore-v1 file;
///   - SubsetView: a contiguous cluster range of another view.
class KgView {
 public:
  virtual ~KgView() = default;

  /// Number of entity clusters N.
  virtual uint64_t NumClusters() const = 0;

  /// Number of triples M_i in cluster `cluster` (< NumClusters()).
  virtual uint64_t ClusterSize(uint64_t cluster) const = 0;

  /// Total number of triples M.
  virtual uint64_t TotalTriples() const = 0;

  /// The view's triple-offset column: N+1 ascending triple ordinals o, where
  /// cluster c holds the ordinals [o[c], o[c+1]) and o[N] - o[0] = M. o[0] is
  /// 0 for a whole graph; a SubsetView hands out its parent's subspan, whose
  /// o[0] is the ordinal of its first triple. Empty when the view keeps no
  /// such column (KnowledgeGraph, whose clusters grow out of order);
  /// TriplePrefixIndex then builds one. Size-weighted sampling borrows the
  /// column, so its set-up is O(1) on views that have one.
  ///
  /// The span is valid until the view next changes: ClusterPopulation::Append
  /// may reallocate it. Re-read it on every use; never cache it.
  virtual std::span<const uint64_t> TripleOffsets() const { return {}; }

  /// Convenience: all cluster sizes as a dense vector (O(N)).
  std::vector<uint64_t> ClusterSizes() const {
    std::vector<uint64_t> sizes(NumClusters());
    for (uint64_t i = 0; i < sizes.size(); ++i) sizes[i] = ClusterSize(i);
    return sizes;
  }

  /// Average cluster size M/N (Table 3's "Average cluster size").
  double AverageClusterSize() const {
    return NumClusters() > 0 ? static_cast<double>(TotalTriples()) /
                                   static_cast<double>(NumClusters())
                             : 0.0;
  }
};

}  // namespace kgacc
