#include "sampling/srs.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace kgacc {

std::vector<uint64_t> SampleIndicesWithoutReplacement(uint64_t population,
                                                      uint64_t k, Rng& rng) {
  if (k >= population) {
    std::vector<uint64_t> all(population);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  if (k == 0) return {};

  if (k * 3 >= population) {
    // Dense draw: partial Fisher–Yates over an explicit index vector.
    std::vector<uint64_t> indices(population);
    std::iota(indices.begin(), indices.end(), 0);
    for (uint64_t i = 0; i < k; ++i) {
      const uint64_t j = i + rng.UniformIndex(population - i);
      std::swap(indices[i], indices[j]);
    }
    indices.resize(k);
    return indices;
  }

  // Sparse draw: Floyd's algorithm, O(k) expected work and memory.
  FlatSet64 chosen;
  std::vector<uint64_t> out;
  out.reserve(k);
  for (uint64_t j = population - k; j < population; ++j) {
    const uint64_t t = rng.UniformIndex(j + 1);
    if (chosen.Insert(t)) {
      out.push_back(t);
    } else {
      chosen.Insert(j);
      out.push_back(j);
    }
  }
  return out;
}

std::vector<uint64_t> DistinctIndexSampler::Next(uint64_t k, Rng& rng) {
  k = std::min<uint64_t>(k, population_ - drawn_.size());
  std::vector<uint64_t> batch;
  batch.reserve(k);
  // Rejection over the shrinking remainder; cheap while the sample is a
  // small fraction of the population (always the case in our experiments).
  // Falls back to an in-order scan when the remainder gets tight.
  const uint64_t max_attempts = 20 * (k + 8);
  for (uint64_t attempts = 0; batch.size() < k && attempts < max_attempts;
       ++attempts) {
    const uint64_t index = rng.UniformIndex(population_);
    if (drawn_.Insert(index)) batch.push_back(index);
  }
  for (uint64_t index = 0; batch.size() < k && index < population_; ++index) {
    if (drawn_.Insert(index)) batch.push_back(index);
  }
  return batch;
}

TriplePrefixIndex::TriplePrefixIndex(const KgView& view)
    : view_(view), num_clusters_(view.NumClusters()) {
  if (view.TripleOffsets().empty()) {
    built_.resize(num_clusters_ + 1);
    for (uint64_t i = 0; i < num_clusters_; ++i) {
      built_[i + 1] = built_[i] + view.ClusterSize(i);
    }
  }
  const std::span<const uint64_t> offsets = Offsets();
  total_triples_ = offsets.back() - offsets.front();
}

TripleRef TriplePrefixIndex::Lookup(uint64_t global_index) const {
  KGACC_CHECK(global_index < TotalTriples())
      << "global triple index out of range";
  const std::span<const uint64_t> offsets = Offsets();
  const uint64_t ordinal = offsets.front() + global_index;
  // The first offset past the ordinal ends the cluster holding it.
  const auto it = std::upper_bound(offsets.begin() + 1, offsets.end(), ordinal);
  const uint64_t cluster = static_cast<uint64_t>(it - offsets.begin()) - 1;
  return TripleRef{cluster, ordinal - offsets[cluster]};
}

uint64_t TriplePrefixIndex::SizeWeightedCluster(Rng& rng) const {
  KGACC_CHECK(TotalTriples() > 0)
      << "size-weighted draw over an empty population";
  return Lookup(rng.UniformIndex(TotalTriples())).cluster;
}

}  // namespace kgacc
