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
  KGACC_CHECK(stratum_of_.size() + 1 == column_.Offsets().size())
      << "one stratum id per cluster";
  uint8_t max_id = 0;
  for (uint8_t h : stratum_of_) max_id = std::max(max_id, h);
  KGACC_CHECK(stratum_of_.empty() || max_id < num_strata_)
      << "stratum id out of range";
  IndexBlocks([ids = stratum_of_.data()](uint64_t c, uint64_t) {
    return ids[c];
  });
}

StratumIndex::StratumIndex(TriplePrefixIndex column,
                           const SizeStratifier& sizes)
    : column_(std::move(column)),
      stratum_of_(column_.Offsets().size() - 1),
      num_strata_(sizes.NumStrata()),
      num_blocks_((stratum_of_.size() + kBlockClusters - 1) / kBlockClusters),
      block_prefix_(num_strata_ * (num_blocks_ + 1), 0) {
  // Captured by copy: the pass's byte stores could alias the caller's
  // object, whose table would then be re-read for every cluster.
  IndexBlocks(
      [sizes](uint64_t, uint64_t size) { return sizes.StratumOf(size); });
}

template <typename StratumOf>
void StratumIndex::IndexBlocks(StratumOf stratum_of) {
  // Raw pointers in locals: a store through `ids` (a byte type) could alias
  // any member, so member reads in the loop would be reloaded per cluster.
  const uint64_t* offsets = column_.Offsets().data();
  uint8_t* ids = stratum_of_.data();
  const uint64_t n = stratum_of_.size();
  const uint64_t stride = num_blocks_ + 1;
  uint64_t* prefix = block_prefix_.data();
  // Four interleaved sets of per-stratum totals (cluster c adds to set
  // c % 4), so runs of one stratum do not wait on each other's stores.
  const size_t strata = num_strata_;
  std::vector<uint64_t> running(4 * strata, 0);
  uint64_t* totals = running.data();
  const auto write_prefix = [&](uint64_t block) {
    for (size_t h = 0; h < strata; ++h) {
      prefix[h * stride + block] = totals[h] + totals[strata + h] +
                                   totals[2 * strata + h] +
                                   totals[3 * strata + h];
    }
  };
  for (uint64_t block = 0; block < num_blocks_; ++block) {
    write_prefix(block);
    const uint64_t end = std::min<uint64_t>(n, (block + 1) * kBlockClusters);
    for (uint64_t c = block * kBlockClusters; c < end; ++c) {
      const uint64_t size = offsets[c + 1] - offsets[c];
      const uint8_t h = stratum_of(c, size);
      ids[c] = h;
      totals[(c % 4) * strata + h] += size;
    }
  }
  write_prefix(num_blocks_);
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
