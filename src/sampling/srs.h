#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kg/kg_view.h"
#include "kg/triple.h"
#include "util/flat_map.h"
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
  FlatSet64 drawn_;
};

/// Maps global triple indices in [0, M) to (cluster, offset) positions by
/// binary search over a triple-offset column (KgView::TripleOffsets()). It
/// borrows the view's column and re-reads it on every lookup, so building it
/// is O(1); only for a view without one does it build its own, in O(N).
/// O(log N) per lookup. The one size-weighted structure: SRS looks up uniform
/// triple ordinals in it, and WCS/TWCS draw their first stage from it.
/// Covers the clusters the view had when the index was built. Borrows
/// `view`, which must outlive the index.
class TriplePrefixIndex {
 public:
  explicit TriplePrefixIndex(const KgView& view);

  TripleRef Lookup(uint64_t global_index) const;

  /// Draws a cluster with probability pi_i = M_i / M (Section 5.2.2): the
  /// cluster holding a uniformly drawn triple (Proposition 2, read the other
  /// way). Exact in integer arithmetic, so a zero-size cluster is never
  /// drawn. Aborts on a population without triples.
  uint64_t SizeWeightedCluster(Rng& rng) const;

  uint64_t TotalTriples() const { return total_triples_; }

  const KgView& view() const { return view_; }

  /// The column lookups read: the view's, or the one this index built.
  std::span<const uint64_t> Offsets() const {
    if (!built_.empty()) return built_;
    return view_.TripleOffsets().first(num_clusters_ + 1);
  }

 private:
  const KgView& view_;
  uint64_t num_clusters_;
  uint64_t total_triples_ = 0;
  std::vector<uint64_t> built_;  // only for a view without a column.
};

}  // namespace kgacc
