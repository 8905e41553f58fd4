#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kg/kg_view.h"
#include "sampling/srs.h"
#include "stats/stratification.h"
#include "util/rng.h"

namespace kgacc {

/// Size-weighted draws inside each stratum of a cluster partition, through
/// one block-prefix rank index over the view's triple-offset column: for
/// every 64-cluster block, each stratum's triple count before the block. A
/// draw in stratum h is the cluster holding triple t = UniformIndex(M_h) of h
/// in cluster-id order — the same draw a TriplePrefixIndex makes over a view
/// of h's clusters alone, without building one per stratum. One O(N) pass to
/// build, which also writes each cluster's id when the strata are size
/// strata; it keeps the stratum id per cluster plus (N/64 + 1) * H counts
/// (0.5 B per cluster at H = 4), and a draw costs O(log(N/64) + 64).
class StratumIndex {
 public:
  static constexpr uint64_t kBlockClusters = 64;

  /// Draws over `column`'s view, which must outlive the index.
  /// `stratum_of` holds one id < `num_strata` per cluster of the view.
  StratumIndex(TriplePrefixIndex column, std::vector<uint8_t> stratum_of,
               size_t num_strata);

  /// Over `view`'s own column, or one built for it.
  StratumIndex(const KgView& view, std::vector<uint8_t> stratum_of,
               size_t num_strata)
      : StratumIndex(TriplePrefixIndex(view), std::move(stratum_of),
                     num_strata) {}

  /// `sizes`' strata of `column`'s view, which must be the strata cut from
  /// this column: each cluster's id is written in the pass that counts the
  /// block prefixes.
  StratumIndex(TriplePrefixIndex column, const SizeStratifier& sizes);

  const KgView& view() const { return column_.view(); }

  size_t NumStrata() const { return num_strata_; }

  /// M_h, the triples of stratum h.
  uint64_t StratumTriples(size_t h) const {
    return block_prefix_[h * (num_blocks_ + 1) + num_blocks_];
  }

  /// The cluster holding triple `t` (< M_h) of stratum h, counting h's
  /// triples in cluster-id order.
  uint64_t Lookup(size_t h, uint64_t t) const;

  /// Draws a cluster of stratum h with probability M_i / M_h. Aborts when
  /// the stratum holds no triple.
  uint64_t SizeWeightedCluster(size_t h, Rng& rng) const;

 private:
  /// Fills the block prefixes in one pass over the column, storing cluster
  /// c's stratum `stratum_of(c, size of c)` as it goes.
  template <typename StratumOf>
  void IndexBlocks(StratumOf stratum_of);

  TriplePrefixIndex column_;  // the view's column, or one built for it.
  std::vector<uint8_t> stratum_of_;
  size_t num_strata_;
  uint64_t num_blocks_;
  /// [h * (num_blocks_ + 1) + b]: triples of stratum h in the clusters
  /// before block b.
  std::vector<uint64_t> block_prefix_;
};

}  // namespace kgacc
