#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace kgacc {

/// Most strata a stratification takes: the cum-sqrt(F) histogram has 256
/// bins and needs one per stratum, and a stratum id fits one byte.
inline constexpr int kMaxStrata = 256;
static_assert(kMaxStrata - 1 <= std::numeric_limits<uint8_t>::max());

/// A partition of clusters into non-overlapping strata: each cluster's
/// stratum id, plus each stratum's weight W_h = (triples in stratum h) /
/// (total triples) (paper Section 5.3, Eq 13). Every stratum holds at least
/// one cluster.
struct Strata {
  std::vector<uint8_t> stratum_of;  ///< stratum id of each cluster.
  std::vector<double> weights;      ///< W_h, sums to 1.

  size_t NumStrata() const { return weights.size(); }
};

/// Dalenius–Hodges cumulative-sqrt(F) stratum boundaries over `values`
/// (paper's "Size Stratification" uses cluster sizes). Builds an equi-width
/// histogram with `num_bins` bins, accumulates sqrt(frequency), and cuts it
/// into `num_strata` equal segments. Returns `num_strata - 1` ascending value
/// boundaries; stratum h = { v : boundary[h-1] < v <= boundary[h] }.
/// Degenerate inputs (all values equal, fewer distinct values than strata)
/// return fewer boundaries.
std::vector<double> CumulativeSqrtFBoundaries(const std::vector<double>& values,
                                              int num_strata,
                                              int num_bins = kMaxStrata);

/// Assigns each value to a stratum given ascending boundaries; value v goes
/// to the first stratum whose boundary is >= v (last stratum if none).
std::vector<uint32_t> AssignStrata(const std::vector<double>& values,
                                   const std::vector<double>& boundaries);

/// Builds Strata over clusters from a per-cluster signal (e.g. true accuracy
/// for oracle stratification). Empty strata are dropped. `sizes` provides the
/// triple mass used for W_h.
Strata StratifyClusters(const std::vector<double>& signal,
                        const std::vector<uint64_t>& sizes, int num_strata);

/// Size stratification over a triple-offset column (cluster c holds
/// [offsets[c], offsets[c+1]), as KgView::TripleOffsets()), cut in one pass:
/// clusters are counted per size (a table indexed by size below 2^16, larger
/// sizes kept aside), and the boundaries, each size's stratum and each
/// stratum's weight follow from those counts. The strata are exactly
/// StratifyClusters' with each cluster's size as both signal and mass.
class SizeStratifier {
 public:
  SizeStratifier(std::span<const uint64_t> offsets, int num_strata);

  /// The stratum of a cluster of `size` triples (a size the column holds).
  uint8_t StratumOf(uint64_t size) const {
    return size < stratum_of_size_.size() ? stratum_of_size_[size]
                                          : StratumOfLarge(size);
  }

  const std::vector<double>& weights() const { return weights_; }
  size_t NumStrata() const { return weights_.size(); }

 private:
  uint8_t StratumOfLarge(uint64_t size) const;

  std::vector<uint8_t> stratum_of_size_;  ///< by size, to the largest < 2^16.
  std::vector<double> boundaries_;
  std::vector<uint8_t> renumbered_;  ///< cut stratum -> stratum with clusters.
  std::vector<double> weights_;
};

/// SizeStratifier's strata with each cluster's id: a second pass over the
/// column, and the one O(N) allocation.
Strata StratifySizes(std::span<const uint64_t> offsets, int num_strata);

namespace internal {
/// Strata from a stratum id per cluster (< stratum_triples.size()) and each
/// id's triple mass and cluster count: ids without a cluster are dropped and
/// the rest renumbered in order.
Strata CompactStrata(std::vector<uint8_t> stratum_of,
                     const std::vector<uint64_t>& stratum_triples,
                     const std::vector<uint64_t>& stratum_clusters);
}  // namespace internal

}  // namespace kgacc
