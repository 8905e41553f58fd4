#include "stats/stratification.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace kgacc {

namespace {

/// Sizes min_size + s with s below this are binned and assigned once per
/// distinct size; a tail of larger sizes once per cluster.
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
size_t StratumOf(double value, const std::vector<double>& boundaries) {
  return static_cast<size_t>(
      std::lower_bound(boundaries.begin(), boundaries.end(), value) -
      boundaries.begin());
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
    assignment[i] = static_cast<uint32_t>(StratumOf(values[i], boundaries));
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
    const size_t h = StratumOf(signal[i], boundaries);
    stratum_of[i] = static_cast<uint8_t>(h);
    triples[h] += sizes[i];
    ++clusters[h];
  }
  return internal::CompactStrata(std::move(stratum_of), triples, clusters);
}

Strata StratifySizes(std::span<const uint64_t> offsets, int num_strata) {
  KGACC_CHECK(num_strata >= 1);
  KGACC_CHECK(kMaxStrata >= num_strata);
  const uint64_t n = offsets.empty() ? 0 : offsets.size() - 1;
  const auto size_of = [offsets](uint64_t c) {
    return offsets[c + 1] - offsets[c];
  };

  // Pass 1: the size range. Converting to double is monotone, so these are
  // also the extremes of the sizes as a double signal.
  uint64_t min_size = n > 0 ? size_of(0) : 0;
  uint64_t max_size = min_size;
  for (uint64_t c = 1; c < n; ++c) {
    const uint64_t size = size_of(c);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  const uint64_t table_size =
      n == 0 ? 0
             : std::min(max_size - min_size, kSizeTableEntries - 1) + 1;
  const double lo = static_cast<double>(min_size);
  const double hi = static_cast<double>(max_size);
  // CumulativeSqrtFBoundaries' early-outs: one stratum, or one point mass.
  const bool cut = num_strata > 1 && lo != hi;
  const double bin_width = (hi - lo) / static_cast<double>(kMaxStrata);

  // Pass 2: clusters per size in the table, histogram bins for the rest.
  std::vector<uint64_t> clusters_of_size(table_size, 0);
  std::vector<uint64_t> freq(kMaxStrata, 0);
  for (uint64_t c = 0; c < n; ++c) {
    const uint64_t size = size_of(c);
    if (size - min_size < table_size) {
      ++clusters_of_size[size - min_size];
    } else if (cut) {
      ++freq[BinOf(static_cast<double>(size), lo, bin_width, kMaxStrata)];
    }
  }
  std::vector<double> boundaries;
  if (cut) {
    for (uint64_t s = 0; s < table_size; ++s) {
      freq[BinOf(static_cast<double>(min_size + s), lo, bin_width,
                 kMaxStrata)] += clusters_of_size[s];
    }
    boundaries = CutCumulativeSqrtF(freq, lo, bin_width, num_strata);
  }

  // Pass 3: each cluster's stratum, through the table where it reaches.
  std::vector<uint64_t> triples(boundaries.size() + 1, 0);
  std::vector<uint64_t> clusters(boundaries.size() + 1, 0);
  std::vector<uint8_t> stratum_of_size(table_size);
  for (uint64_t s = 0; s < table_size; ++s) {
    const size_t h = StratumOf(static_cast<double>(min_size + s), boundaries);
    stratum_of_size[s] = static_cast<uint8_t>(h);
    triples[h] += clusters_of_size[s] * (min_size + s);
    clusters[h] += clusters_of_size[s];
  }
  std::vector<uint8_t> stratum_of(n);
  for (uint64_t c = 0; c < n; ++c) {
    const uint64_t size = size_of(c);
    if (size - min_size < table_size) {
      stratum_of[c] = stratum_of_size[size - min_size];
      continue;
    }
    const size_t h = StratumOf(static_cast<double>(size), boundaries);
    stratum_of[c] = static_cast<uint8_t>(h);
    triples[h] += size;
    ++clusters[h];
  }
  return internal::CompactStrata(std::move(stratum_of), triples, clusters);
}

namespace internal {

Strata CompactStrata(std::vector<uint8_t> stratum_of,
                     const std::vector<uint64_t>& stratum_triples,
                     const std::vector<uint64_t>& stratum_clusters) {
  uint64_t total_triples = 0;
  for (uint64_t triples : stratum_triples) total_triples += triples;

  // Drop empty strata (possible when boundaries collapse).
  Strata strata;
  std::vector<uint8_t> renumbered(stratum_clusters.size(), 0);
  for (size_t h = 0; h < stratum_clusters.size(); ++h) {
    if (stratum_clusters[h] == 0) continue;
    renumbered[h] = static_cast<uint8_t>(strata.weights.size());
    strata.weights.push_back(
        total_triples > 0 ? static_cast<double>(stratum_triples[h]) /
                                static_cast<double>(total_triples)
                          : 0.0);
  }
  if (strata.weights.size() < stratum_clusters.size()) {
    for (uint8_t& h : stratum_of) h = renumbered[h];
  }
  strata.stratum_of = std::move(stratum_of);
  return strata;
}

}  // namespace internal

}  // namespace kgacc
