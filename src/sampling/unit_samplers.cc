#include "sampling/unit_samplers.h"

#include <numeric>
#include <utility>

#include "util/logging.h"

namespace kgacc {

SampleUnit TwcsUnit(const KgView& view, uint64_t cluster, uint64_t m,
                    Rng& rng) {
  return SampleUnit{
      cluster,
      SampleIndicesWithoutReplacement(view.ClusterSize(cluster), m, rng)};
}

SrsUnitSampler::SrsUnitSampler(const KgView& view)
    : index_(view), ordinals_(view.TotalTriples()) {}

std::vector<SampleUnit> SrsUnitSampler::NextBatch(uint64_t n, Rng& rng) {
  std::vector<SampleUnit> units;
  for (uint64_t ordinal : ordinals_.Next(n, rng)) {
    const TripleRef ref = index_.Lookup(ordinal);
    units.push_back(SampleUnit{ref.cluster, {ref.offset}});
  }
  return units;
}

RcsUnitSampler::RcsUnitSampler(const KgView& view)
    : view_(view), clusters_(view.NumClusters()) {}

std::vector<SampleUnit> RcsUnitSampler::NextBatch(uint64_t n, Rng& rng) {
  std::vector<SampleUnit> units;
  for (uint64_t cluster : clusters_.Next(n, rng)) {
    std::vector<uint64_t> offsets(view_.ClusterSize(cluster));
    std::iota(offsets.begin(), offsets.end(), 0);
    units.push_back(SampleUnit{cluster, std::move(offsets)});
  }
  return units;
}

TwcsUnitSampler::TwcsUnitSampler(const KgView& view, uint64_t m)
    : view_(view), index_(view), m_(m) {
  KGACC_CHECK(m_ >= 1) << "TWCS second-stage size m must be >= 1";
}

std::vector<SampleUnit> TwcsUnitSampler::NextBatch(uint64_t n, Rng& rng) {
  std::vector<SampleUnit> units;
  units.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    units.push_back(TwcsUnit(view_, index_.SizeWeightedCluster(rng), m_, rng));
  }
  return units;
}

}  // namespace kgacc
