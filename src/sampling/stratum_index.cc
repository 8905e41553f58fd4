#include "sampling/stratum_index.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/logging.h"

namespace kgacc {

StratumIndex::StratumIndex(TriplePrefixIndex column,
                           std::vector<uint8_t> stratum_of, size_t num_strata)
    : column_(std::move(column)),
      stratum_of_(std::move(stratum_of)),
      num_strata_(num_strata),
      num_blocks_((stratum_of_.size() + kBlockClusters - 1) / kBlockClusters),
      block_prefix_(num_strata * (num_blocks_ + 1), 0) {
  const std::span<const uint64_t> offsets = column_.Offsets();
  KGACC_CHECK(stratum_of_.size() + 1 == offsets.size())
      << "one stratum id per cluster";
  uint8_t max_id = 0;
  for (uint8_t h : stratum_of_) max_id = std::max(max_id, h);
  KGACC_CHECK(stratum_of_.empty() || max_id < num_strata_)
      << "stratum id out of range";
  std::vector<uint64_t> running(num_strata_, 0);
  for (uint64_t block = 0; block < num_blocks_; ++block) {
    for (size_t h = 0; h < num_strata_; ++h) {
      block_prefix_[h * (num_blocks_ + 1) + block] = running[h];
    }
    const uint64_t end =
        std::min<uint64_t>(stratum_of_.size(), (block + 1) * kBlockClusters);
    for (uint64_t c = block * kBlockClusters; c < end; ++c) {
      running[stratum_of_[c]] += offsets[c + 1] - offsets[c];
    }
  }
  for (size_t h = 0; h < num_strata_; ++h) {
    block_prefix_[h * (num_blocks_ + 1) + num_blocks_] = running[h];
  }
}

uint64_t StratumIndex::Lookup(size_t h, uint64_t t) const {
  KGACC_CHECK(h < num_strata_ && t < StratumTriples(h))
      << "stratum triple index out of range";
  const uint64_t* prefix = &block_prefix_[h * (num_blocks_ + 1)];
  // The last block that starts at or before triple t of stratum h.
  const uint64_t block = static_cast<uint64_t>(
      std::upper_bound(prefix, prefix + num_blocks_ + 1, t) - prefix - 1);
  const std::span<const uint64_t> offsets = column_.Offsets();
  const uint64_t end =
      std::min<uint64_t>(stratum_of_.size(), (block + 1) * kBlockClusters);
  uint64_t before = prefix[block];
  for (uint64_t c = block * kBlockClusters; c < end; ++c) {
    if (stratum_of_[c] != h) continue;
    before += offsets[c + 1] - offsets[c];
    if (t < before) return c;
  }
  KGACC_CHECK(false) << "block prefix disagrees with the column";
  return 0;
}

uint64_t StratumIndex::SizeWeightedCluster(size_t h, Rng& rng) const {
  KGACC_CHECK(h < num_strata_) << "stratum out of range";
  KGACC_CHECK(StratumTriples(h) > 0)
      << "size-weighted draw over an empty population";
  return Lookup(h, rng.UniformIndex(StratumTriples(h)));
}

}  // namespace kgacc
