#include "core/reservoir_incremental.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/campaign.h"
#include "sampling/srs.h"
#include "stats/running_stats.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace kgacc {

double ReservoirIncrementalEvaluator::MakeKey(uint64_t cluster) {
  const double weight = static_cast<double>(population_->ClusterSize(cluster));
  KGACC_CHECK(weight > 0.0);
  return std::pow(rng_.UniformDoublePositive(), 1.0 / weight);
}

std::vector<uint64_t> ReservoirIncrementalEvaluator::SecondStageOffsets(
    uint64_t cluster) const {
  Rng second_stage(HashCombine(options_.seed, cluster, 0x2e2dULL));
  return SampleIndicesWithoutReplacement(population_->ClusterSize(cluster),
                                         m_, second_stage);
}

void ReservoirIncrementalEvaluator::AnnotateReservoirEntrants(uint64_t count) {
  // Reservoir clusters are distinct, so entrants need no dedup.
  std::vector<uint64_t> entrants;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t cluster = entries_[i].cluster;
    if (!sampled_accuracy_.contains(cluster)) entrants.push_back(cluster);
  }
  // Streamed with the async bridge: deriving later entrants' second-stage
  // offsets overlaps earlier entrants' annotation latency.
  const std::vector<GroupLabels> labels = AnnotateGroups(
      *annotator_, entrants.size(),
      [&](size_t e) {
        std::vector<TripleRef> refs;
        for (uint64_t offset : SecondStageOffsets(entrants[e])) {
          refs.push_back(TripleRef{entrants[e], offset});
        }
        return refs;
      },
      annotator_->AsyncCapable() && options_.pipeline_rounds);
  for (size_t e = 0; e < entrants.size(); ++e) {
    sampled_accuracy_.emplace(
        entrants[e], std::make_pair(labels[e].correct, labels[e].size));
  }
}

class ReservoirIncrementalEvaluator::Reevaluation final
    : public PolicyCampaign {
 public:
  Reevaluation(ReservoirIncrementalEvaluator* rs, const std::string& label)
      : PolicyCampaign("RS", label, rs->annotator_, rs->options_,
                       rs->options_.telemetry),
        rs_(rs) {}

 private:
  RoundOutcome RunRound() override {
    std::vector<KeyedCluster>& entries = rs_->entries_;
    uint64_t& capacity = rs_->capacity_;
    WallTimer machine;
    capacity = std::min<uint64_t>(capacity, entries.size());
    // The top-capacity keys are the current A-Res reservoir.
    std::nth_element(entries.begin(),
                     entries.begin() + static_cast<int64_t>(capacity - 1),
                     entries.end(),
                     [](const KeyedCluster& a, const KeyedCluster& b) {
                       return a.key > b.key;
                     });
    machine_seconds_ += machine.ElapsedSeconds();

    // One crowd-scale batch for all entrants, then the stats pass below
    // finds every accuracy recorded.
    rs_->AnnotateReservoirEntrants(capacity);
    RunningStats stats;
    for (uint64_t i = 0; i < capacity; ++i) {
      const auto& [correct, sampled] =
          rs_->sampled_accuracy_.at(entries[i].cluster);
      stats.Add(static_cast<double>(correct) / static_cast<double>(sampled));
    }
    RoundOutcome outcome;
    outcome.estimate.mean = stats.Mean();
    outcome.estimate.variance_of_mean = stats.VarianceOfMean();
    outcome.estimate.num_units = stats.Count();
    outcome.moe = policy().MarginOfError(outcome.estimate);
    // The reservoir exhausts when the whole population is sampled.
    outcome.exhausted = capacity >= entries.size();
    return outcome;
  }

  void Advance() override {
    // MoE unmet: draw more cluster samples (grow the reservoir).
    rs_->capacity_ = std::min<uint64_t>(
        rs_->entries_.size(), rs_->capacity_ + options().batch_units);
  }

  ReservoirIncrementalEvaluator* rs_;
};

Estimate ReservoirIncrementalEvaluator::CurrentEstimate() const {
  KGACC_CHECK(!entries_.empty()) << "no state: call Initialize() or Restore()";
  // The reservoir is the top-capacity_ entries by key; since this is a
  // const read path, select them without disturbing entries_ order.
  std::vector<double> keys;
  keys.reserve(entries_.size());
  for (const KeyedCluster& entry : entries_) keys.push_back(entry.key);
  std::nth_element(keys.begin(),
                   keys.begin() + static_cast<int64_t>(capacity_ - 1),
                   keys.end(), std::greater<double>());
  const double threshold = keys[capacity_ - 1];

  RunningStats stats;
  uint64_t taken = 0;
  for (const KeyedCluster& entry : entries_) {
    if (entry.key < threshold || taken >= capacity_) continue;
    const auto it = sampled_accuracy_.find(entry.cluster);
    if (it == sampled_accuracy_.end()) continue;  // not annotated yet.
    stats.Add(static_cast<double>(it->second.first) /
              static_cast<double>(it->second.second));
    ++taken;
  }
  Estimate estimate;
  estimate.mean = stats.Mean();
  estimate.variance_of_mean = stats.VarianceOfMean();
  estimate.num_units = stats.Count();
  return estimate;
}

ReservoirIncrementalEvaluator::ReservoirSnapshot
ReservoirIncrementalEvaluator::Snapshot() const {
  ReservoirSnapshot snapshot;
  snapshot.capacity = capacity_;
  snapshot.entries.reserve(entries_.size());
  for (const KeyedCluster& entry : entries_) {
    snapshot.entries.emplace_back(entry.cluster, entry.key);
  }
  snapshot.annotated.reserve(sampled_accuracy_.size());
  for (const auto& [cluster, record] : sampled_accuracy_) {
    snapshot.annotated.emplace_back(cluster, record.first, record.second);
  }
  return snapshot;
}

Status ReservoirIncrementalEvaluator::Restore(const ReservoirSnapshot& snapshot) {
  if (!entries_.empty()) {
    return Status::FailedPrecondition(
        "Restore() requires a never-initialized evaluator");
  }
  if (snapshot.capacity == 0 || snapshot.entries.empty() ||
      snapshot.capacity > snapshot.entries.size()) {
    return Status::InvalidArgument("inconsistent reservoir snapshot");
  }
  for (const auto& [cluster, key] : snapshot.entries) {
    if (cluster >= population_->NumClusters()) {
      return Status::FailedPrecondition(StrFormat(
          "snapshot references cluster %llu, population has %llu",
          static_cast<unsigned long long>(cluster),
          static_cast<unsigned long long>(population_->NumClusters())));
    }
    if (!(key > 0.0 && key <= 1.0)) {
      return Status::InvalidArgument("reservoir key outside (0, 1]");
    }
  }
  for (const auto& [cluster, correct, sampled] : snapshot.annotated) {
    if (cluster >= population_->NumClusters() || sampled == 0 ||
        correct > sampled || sampled > population_->ClusterSize(cluster)) {
      return Status::FailedPrecondition(StrFormat(
          "invalid annotation record for cluster %llu",
          static_cast<unsigned long long>(cluster)));
    }
  }
  capacity_ = snapshot.capacity;
  entries_.reserve(snapshot.entries.size());
  for (const auto& [cluster, key] : snapshot.entries) {
    entries_.push_back(KeyedCluster{key, cluster});
  }
  for (const auto& [cluster, correct, sampled] : snapshot.annotated) {
    sampled_accuracy_.emplace(cluster, std::make_pair(correct, sampled));
  }
  return Status::OK();
}

std::unique_ptr<Campaign> ReservoirIncrementalEvaluator::InitializeCampaign() {
  KGACC_CHECK(entries_.empty()) << "Initialize() called twice";
  const uint64_t n = population_->NumClusters();
  KGACC_CHECK(n > 0) << "empty base graph";
  entries_.reserve(n);
  for (uint64_t cluster = 0; cluster < n; ++cluster) {
    entries_.push_back(KeyedCluster{MakeKey(cluster), cluster});
  }
  capacity_ = std::min<uint64_t>(n, std::max<uint64_t>(options_.min_units,
                                                       options_.batch_units));
  return std::make_unique<Reevaluation>(this, "initialize");
}

std::unique_ptr<Campaign> ReservoirIncrementalEvaluator::UpdateCampaign(
    uint64_t first_new_cluster, uint64_t count) {
  KGACC_CHECK(!entries_.empty()) << "call Initialize() first";
  KGACC_CHECK(first_new_cluster + count <= population_->NumClusters())
      << "update range exceeds population (apply deltas to the population "
         "before calling ApplyUpdate)";
  for (uint64_t c = first_new_cluster; c < first_new_cluster + count; ++c) {
    entries_.push_back(KeyedCluster{MakeKey(c), c});
  }
  ++update_counter_;
  return std::make_unique<Reevaluation>(
      this, StrFormat("update-%llu",
                      static_cast<unsigned long long>(update_counter_)));
}

}  // namespace kgacc
