#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kg/kg_view.h"

namespace kgacc {

/// Size-only representation of a clustered KG: stores each cluster's triple
/// offset but no triple payloads. This is sufficient for every sampling design
/// in the paper (they only consume cluster sizes plus per-triple labels, which
/// a TruthOracle provides lazily) and takes 8 B per cluster, so MOVIE-FULL's
/// 14.5M clusters (130M triples) take about 116 MB. Append-only, so it also
/// serves as the evolving-KG substrate: each applied ClusterDelta appends one
/// new cluster (Section 6.1's weight trick).
class ClusterPopulation : public KgView {
 public:
  ClusterPopulation() = default;

  explicit ClusterPopulation(const std::vector<uint32_t>& sizes);

  /// Appends one cluster of `size` triples in amortized O(1); returns its
  /// index. May reallocate the TripleOffsets() column.
  uint64_t Append(uint32_t size);

  /// Appends many clusters at once.
  void AppendAll(const std::vector<uint32_t>& sizes);

  // KgView:
  uint64_t NumClusters() const override { return offsets_.size() - 1; }
  uint64_t ClusterSize(uint64_t cluster) const override;
  uint64_t TotalTriples() const override { return offsets_.back(); }
  std::span<const uint64_t> TripleOffsets() const override { return offsets_; }

 private:
  std::vector<uint64_t> offsets_{0};  // offsets_[c] = triples before c.
};

}  // namespace kgacc
