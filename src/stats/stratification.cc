#include "stats/stratification.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace kgacc {

namespace {

/// Sizes below this are counted, binned and assigned once per distinct size;
/// larger ones once per cluster.
constexpr uint64_t kSizeTableEntries = uint64_t{1} << 16;

/// Equi-width histogram bin of `value`: bins of `bin_width` from `lo`, the
/// last one closed.
int BinOf(double value, double lo, double bin_width, int num_bins) {
  const int bin = static_cast<int>((value - lo) / bin_width);
  return std::clamp(bin, 0, num_bins - 1);
}

/// Cuts cumulative sqrt(frequency) over the histogram `freq` into
/// `num_strata` equal segments; returns the ascending value boundaries.
std::vector<double> CutCumulativeSqrtF(const std::vector<uint64_t>& freq,
                                       double lo, double bin_width,
                                       int num_strata) {
  std::vector<double> cum_sqrt_f(freq.size());
  double running = 0.0;
  for (size_t i = 0; i < freq.size(); ++i) {
    running += std::sqrt(static_cast<double>(freq[i]));
    cum_sqrt_f[i] = running;
  }
  const double total = running;

  std::vector<double> boundaries;
  boundaries.reserve(static_cast<size_t>(num_strata - 1));
  size_t bin = 0;
  for (int h = 1; h < num_strata; ++h) {
    const double target = total * static_cast<double>(h) /
                          static_cast<double>(num_strata);
    while (bin + 1 < cum_sqrt_f.size() && cum_sqrt_f[bin] < target) ++bin;
    const double edge = lo + bin_width * static_cast<double>(bin + 1);
    if (boundaries.empty() || edge > boundaries.back()) {
      boundaries.push_back(edge);
    }
  }
  return boundaries;
}

/// The first stratum whose boundary is >= value, i.e. the number of
/// boundaries below it.
size_t StratumOfValue(double value, const std::vector<double>& boundaries) {
  return static_cast<size_t>(
      std::lower_bound(boundaries.begin(), boundaries.end(), value) -
      boundaries.begin());
}

/// The cut strata that hold a cluster, renumbered in order, and their
/// weights W_h = (triples in h) / (total triples).
struct StrataCompaction {
  std::vector<uint8_t> renumbered;  ///< cut stratum -> kept stratum.
  std::vector<double> weights;
};

StrataCompaction CompactIds(const std::vector<uint64_t>& stratum_triples,
                            const std::vector<uint64_t>& stratum_clusters) {
  uint64_t total_triples = 0;
  for (uint64_t triples : stratum_triples) total_triples += triples;

  // Drop empty strata (possible when boundaries collapse).
  StrataCompaction compaction;
  compaction.renumbered.assign(stratum_clusters.size(), 0);
  for (size_t h = 0; h < stratum_clusters.size(); ++h) {
    if (stratum_clusters[h] == 0) continue;
    compaction.renumbered[h] =
        static_cast<uint8_t>(compaction.weights.size());
    compaction.weights.push_back(
        total_triples > 0 ? static_cast<double>(stratum_triples[h]) /
                                static_cast<double>(total_triples)
                          : 0.0);
  }
  return compaction;
}

}  // namespace

std::vector<double> CumulativeSqrtFBoundaries(const std::vector<double>& values,
                                              int num_strata, int num_bins) {
  KGACC_CHECK(num_strata >= 1);
  KGACC_CHECK(num_bins >= num_strata);
  if (values.empty() || num_strata == 1) return {};

  const auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  const double lo = *min_it;
  const double hi = *max_it;
  if (lo == hi) return {};  // single point mass: one stratum.

  const double bin_width = (hi - lo) / static_cast<double>(num_bins);
  std::vector<uint64_t> freq(static_cast<size_t>(num_bins), 0);
  for (double v : values) ++freq[BinOf(v, lo, bin_width, num_bins)];
  return CutCumulativeSqrtF(freq, lo, bin_width, num_strata);
}

std::vector<uint32_t> AssignStrata(const std::vector<double>& values,
                                   const std::vector<double>& boundaries) {
  std::vector<uint32_t> assignment(values.size(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    assignment[i] =
        static_cast<uint32_t>(StratumOfValue(values[i], boundaries));
  }
  return assignment;
}

Strata StratifyClusters(const std::vector<double>& signal,
                        const std::vector<uint64_t>& sizes, int num_strata) {
  KGACC_CHECK(signal.size() == sizes.size());
  const std::vector<double> boundaries =
      CumulativeSqrtFBoundaries(signal, num_strata);
  std::vector<uint8_t> stratum_of(signal.size());
  std::vector<uint64_t> triples(boundaries.size() + 1, 0);
  std::vector<uint64_t> clusters(boundaries.size() + 1, 0);
  for (size_t i = 0; i < signal.size(); ++i) {
    const size_t h = StratumOfValue(signal[i], boundaries);
    stratum_of[i] = static_cast<uint8_t>(h);
    triples[h] += sizes[i];
    ++clusters[h];
  }
  return internal::CompactStrata(std::move(stratum_of), triples, clusters);
}

SizeStratifier::SizeStratifier(std::span<const uint64_t> offsets,
                               int num_strata) {
  KGACC_CHECK(num_strata >= 1);
  KGACC_CHECK(kMaxStrata >= num_strata);
  const uint64_t n = offsets.empty() ? 0 : offsets.size() - 1;

  // The one pass: clusters per size below the table's end, larger sizes
  // (at most M / 2^16 of them) aside.
  std::vector<uint64_t> clusters_of_size;
  std::vector<uint64_t> large;
  for (uint64_t c = 0; c < n; ++c) {
    const uint64_t size = offsets[c + 1] - offsets[c];
    if (size < clusters_of_size.size()) {
      ++clusters_of_size[size];
    } else if (size < kSizeTableEntries) {
      clusters_of_size.resize(size + 1, 0);
      ++clusters_of_size[size];
    } else {
      large.push_back(size);
    }
  }

  // The size range. Converting to double is monotone, so these are also the
  // extremes of the sizes as a double signal.
  uint64_t min_size = 0;
  uint64_t max_size = 0;
  if (!large.empty()) {
    min_size = *std::min_element(large.begin(), large.end());
    max_size = *std::max_element(large.begin(), large.end());
  }
  if (!clusters_of_size.empty()) {
    min_size = static_cast<uint64_t>(
        std::find_if(clusters_of_size.begin(), clusters_of_size.end(),
                     [](uint64_t count) { return count > 0; }) -
        clusters_of_size.begin());
    if (large.empty()) max_size = clusters_of_size.size() - 1;
  }
  const double lo = static_cast<double>(min_size);
  const double hi = static_cast<double>(max_size);
  // CumulativeSqrtFBoundaries' early-outs: one stratum, or one point mass.
  if (num_strata > 1 && lo != hi) {
    const double bin_width = (hi - lo) / static_cast<double>(kMaxStrata);
    std::vector<uint64_t> freq(kMaxStrata, 0);
    for (uint64_t s = min_size; s < clusters_of_size.size(); ++s) {
      freq[BinOf(static_cast<double>(s), lo, bin_width, kMaxStrata)] +=
          clusters_of_size[s];
    }
    for (uint64_t size : large) {
      ++freq[BinOf(static_cast<double>(size), lo, bin_width, kMaxStrata)];
    }
    boundaries_ = CutCumulativeSqrtF(freq, lo, bin_width, num_strata);
  }

  // Each size's cut stratum, walking the boundaries upward with the sizes,
  // and each cut stratum's mass.
  std::vector<uint64_t> triples(boundaries_.size() + 1, 0);
  std::vector<uint64_t> clusters(boundaries_.size() + 1, 0);
  stratum_of_size_.resize(clusters_of_size.size());
  size_t h = 0;
  for (uint64_t s = 0; s < clusters_of_size.size(); ++s) {
    while (h < boundaries_.size() &&
           boundaries_[h] < static_cast<double>(s)) {
      ++h;
    }
    stratum_of_size_[s] = static_cast<uint8_t>(h);
    triples[h] += clusters_of_size[s] * s;
    clusters[h] += clusters_of_size[s];
  }
  for (uint64_t size : large) {
    const size_t cut = StratumOfValue(static_cast<double>(size), boundaries_);
    triples[cut] += size;
    ++clusters[cut];
  }
  StrataCompaction compaction = CompactIds(triples, clusters);
  renumbered_ = std::move(compaction.renumbered);
  weights_ = std::move(compaction.weights);
  for (uint8_t& stratum : stratum_of_size_) stratum = renumbered_[stratum];
}

uint8_t SizeStratifier::StratumOfLarge(uint64_t size) const {
  return renumbered_[StratumOfValue(static_cast<double>(size), boundaries_)];
}

Strata StratifySizes(std::span<const uint64_t> offsets, int num_strata) {
  const SizeStratifier sizes(offsets, num_strata);
  const uint64_t n = offsets.empty() ? 0 : offsets.size() - 1;
  Strata strata;
  strata.stratum_of.resize(n);
  for (uint64_t c = 0; c < n; ++c) {
    strata.stratum_of[c] = sizes.StratumOf(offsets[c + 1] - offsets[c]);
  }
  strata.weights = sizes.weights();
  return strata;
}

namespace internal {

Strata CompactStrata(std::vector<uint8_t> stratum_of,
                     const std::vector<uint64_t>& stratum_triples,
                     const std::vector<uint64_t>& stratum_clusters) {
  StrataCompaction compaction = CompactIds(stratum_triples, stratum_clusters);
  Strata strata;
  strata.weights = std::move(compaction.weights);
  if (strata.weights.size() < stratum_clusters.size()) {
    for (uint8_t& h : stratum_of) h = compaction.renumbered[h];
  }
  strata.stratum_of = std::move(stratum_of);
  return strata;
}

}  // namespace internal

}  // namespace kgacc
