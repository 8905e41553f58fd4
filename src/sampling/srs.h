#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "kg/kg_view.h"
#include "kg/triple.h"
#include "util/rng.h"

namespace kgacc {

/// Draws `k` distinct indices uniformly from {0..population-1} (simple random
/// sampling without replacement). Uses Floyd's algorithm for sparse draws and
/// a partial Fisher–Yates shuffle when k is a large fraction of the
/// population. Returns all indices when k >= population. Order is random.
std::vector<uint64_t> SampleIndicesWithoutReplacement(uint64_t population,
                                                      uint64_t k, Rng& rng);

/// Incremental simple random sampling of indices in {0..population-1}:
/// successive Next() calls return disjoint batches, so the union of all
/// batches is itself an SRS without replacement — the property the iterative
/// framework (Fig 2) relies on when it keeps enlarging the sample until MoE
/// is met. SRS draws triple ordinals through it, RCS cluster ids.
class DistinctIndexSampler {
 public:
  explicit DistinctIndexSampler(uint64_t population)
      : population_(population) {}

  /// Draws up to `k` new distinct indices (fewer when the population is
  /// nearly exhausted, none once it is).
  std::vector<uint64_t> Next(uint64_t k, Rng& rng);

 private:
  uint64_t population_;
  std::unordered_set<uint64_t> drawn_;
};

/// Maps global triple indices in [0, M) to (cluster, offset) positions via a
/// binary-searchable prefix-sum over cluster sizes. O(N) build, O(log N) per
/// lookup. The one size-weighted structure: SRS looks up uniform triple
/// ordinals in it, and WCS/TWCS draw their first stage from it.
class TriplePrefixIndex {
 public:
  explicit TriplePrefixIndex(const KgView& view);

  TripleRef Lookup(uint64_t global_index) const;

  /// Draws a cluster with probability pi_i = M_i / M (Section 5.2.2): the
  /// cluster holding a uniformly drawn triple (Proposition 2, read the other
  /// way). Exact in integer arithmetic, so a zero-size cluster is never
  /// drawn. Aborts on a population without triples.
  uint64_t SizeWeightedCluster(Rng& rng) const;

  uint64_t TotalTriples() const {
    return cumulative_.empty() ? 0 : cumulative_.back();
  }

 private:
  std::vector<uint64_t> cumulative_;  // cumulative_[i] = sum of sizes 0..i.
};

}  // namespace kgacc
