#include "kg/cluster_population.h"

#include "util/logging.h"

namespace kgacc {

ClusterPopulation::ClusterPopulation(const std::vector<uint32_t>& sizes) {
  offsets_.reserve(sizes.size() + 1);
  for (uint32_t s : sizes) offsets_.push_back(offsets_.back() + s);
}

uint64_t ClusterPopulation::Append(uint32_t size) {
  KGACC_DCHECK(size > 0) << "clusters must be non-empty";
  offsets_.push_back(offsets_.back() + size);
  return NumClusters() - 1;
}

void ClusterPopulation::AppendAll(const std::vector<uint32_t>& sizes) {
  for (uint32_t s : sizes) Append(s);
}

uint64_t ClusterPopulation::ClusterSize(uint64_t cluster) const {
  KGACC_DCHECK(cluster < NumClusters());
  return offsets_[cluster + 1] - offsets_[cluster];
}

}  // namespace kgacc
