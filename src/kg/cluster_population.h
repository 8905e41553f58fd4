#pragma once

#include <cstdint>
#include <vector>

#include "kg/kg_view.h"

namespace kgacc {

/// Size-only representation of a clustered KG: stores each cluster's triple
/// count but no triple payloads. This is sufficient for every sampling design
/// in the paper (they only consume cluster sizes plus per-triple labels, which
/// a TruthOracle provides lazily) and scales to MOVIE-FULL's 130M triples in
/// ~60MB. Append-only, so it also serves as the evolving-KG substrate: each
/// applied ClusterDelta appends one new cluster (Section 6.1's weight trick).
class ClusterPopulation : public KgView {
 public:
  ClusterPopulation() = default;

  explicit ClusterPopulation(std::vector<uint32_t> sizes);

  /// Appends one cluster of `size` triples; returns its index.
  uint64_t Append(uint32_t size);

  /// Appends many clusters at once.
  void AppendAll(const std::vector<uint32_t>& sizes);

  // KgView:
  uint64_t NumClusters() const override { return sizes_.size(); }
  uint64_t ClusterSize(uint64_t cluster) const override;
  uint64_t TotalTriples() const override { return total_triples_; }

 private:
  std::vector<uint32_t> sizes_;
  uint64_t total_triples_ = 0;
};

}  // namespace kgacc
