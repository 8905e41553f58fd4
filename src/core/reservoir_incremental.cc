#include "core/reservoir_incremental.h"

#include <algorithm>

#include "core/campaign.h"
#include "sampling/srs.h"
#include "stats/running_stats.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace kgacc {

std::vector<uint64_t> ReservoirIncrementalEvaluator::SecondStageOffsets(
    uint64_t cluster) const {
  Rng second_stage(HashCombine(options_.seed, cluster, 0x2e2dULL));
  return SampleIndicesWithoutReplacement(population_->ClusterSize(cluster),
                                         m_, second_stage);
}

void ReservoirIncrementalEvaluator::AnnotateReservoirEntrants() {
  // Reservoir clusters are distinct, so entrants need no dedup.
  const std::vector<ExponentialRace::Arrival>& reservoir = race_.Arrivals();
  std::vector<uint64_t> entrants;
  for (uint64_t i = 0; i < capacity_; ++i) {
    const uint64_t cluster = reservoir[i].cluster;
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
      });
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
        rs_(rs) {
    Resize(rs_->capacity_);
  }

 private:
  RoundOutcome RunRound() override {
    const ExponentialRace& race = rs_->race_;
    // One crowd-scale batch for all entrants, then the stats pass below
    // finds every accuracy recorded.
    rs_->AnnotateReservoirEntrants();
    RunningStats stats;
    for (uint64_t i = 0; i < rs_->capacity_; ++i) {
      const auto& [correct, sampled] =
          rs_->sampled_accuracy_.at(race.Arrivals()[i].cluster);
      stats.Add(static_cast<double>(correct) / static_cast<double>(sampled));
    }
    RoundOutcome outcome;
    outcome.estimate.mean = stats.Mean();
    outcome.estimate.variance_of_mean = stats.VarianceOfMean();
    outcome.estimate.num_units = stats.Count();
    outcome.moe = policy().MarginOfError(outcome.estimate);
    // The reservoir exhausts once it holds every cluster with triples.
    outcome.exhausted =
        race.Exhausted() && rs_->capacity_ >= race.Arrivals().size();
    return outcome;
  }

  void Advance() override {
    // MoE unmet: draw more cluster samples (grow the reservoir).
    Resize(rs_->capacity_ + options().batch_units);
  }

  /// Races to `capacity` arrivals, so the reservoir is always drawn: a
  /// census ends with fewer arrivals than the capacity asked for.
  void Resize(uint64_t capacity) {
    WallTimer machine;
    rs_->race_.Grow(capacity, rs_->rng_);
    rs_->capacity_ =
        std::min<uint64_t>(capacity, rs_->race_.Arrivals().size());
    machine_seconds_ += machine.ElapsedSeconds();
  }

  ReservoirIncrementalEvaluator* rs_;
};

Estimate ReservoirIncrementalEvaluator::CurrentEstimate() const {
  KGACC_CHECK(race_.Offered() > 0)
      << "no state: call Initialize() or Restore()";
  RunningStats stats;
  for (uint64_t i = 0; i < capacity_; ++i) {
    const auto it = sampled_accuracy_.find(race_.Arrivals()[i].cluster);
    if (it == sampled_accuracy_.end()) continue;  // not annotated yet.
    stats.Add(static_cast<double>(it->second.first) /
              static_cast<double>(it->second.second));
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
  snapshot.rng_state = rng_.State();
  snapshot.capacity = capacity_;
  snapshot.offered = race_.Offered();
  snapshot.horizon = race_.Horizon();
  snapshot.arrivals = race_.Arrivals();
  snapshot.annotated.reserve(sampled_accuracy_.size());
  for (const auto& [cluster, record] : sampled_accuracy_) {
    snapshot.annotated.emplace_back(cluster, record.first, record.second);
  }
  return snapshot;
}

Status ReservoirIncrementalEvaluator::Restore(const ReservoirSnapshot& snapshot) {
  if (race_.Offered() > 0) {
    return Status::FailedPrecondition(
        "Restore() requires a never-initialized evaluator");
  }
  if (snapshot.offered == 0 || snapshot.capacity == 0 ||
      snapshot.capacity > snapshot.arrivals.size()) {
    return Status::InvalidArgument("inconsistent reservoir snapshot");
  }
  if (!Rng::ValidState(snapshot.rng_state)) {
    return Status::InvalidArgument("all-zero sampling stream state");
  }
  for (const auto& [cluster, correct, sampled] : snapshot.annotated) {
    if (cluster >= population_->NumClusters() || sampled == 0 ||
        correct > sampled || sampled > population_->ClusterSize(cluster)) {
      return Status::FailedPrecondition(StrFormat(
          "invalid annotation record for cluster %llu",
          static_cast<unsigned long long>(cluster)));
    }
  }
  // The race validates its own state last: it is the only step that mutates.
  KGACC_RETURN_IF_ERROR(
      race_.Restore(snapshot.offered, snapshot.horizon, snapshot.arrivals));
  rng_.SetState(snapshot.rng_state);
  capacity_ = snapshot.capacity;
  for (const auto& [cluster, correct, sampled] : snapshot.annotated) {
    sampled_accuracy_.emplace(cluster, std::make_pair(correct, sampled));
  }
  return Status::OK();
}

std::unique_ptr<Campaign> ReservoirIncrementalEvaluator::InitializeCampaign() {
  KGACC_CHECK(race_.Offered() == 0) << "Initialize() called twice";
  KGACC_CHECK(population_->NumClusters() > 0) << "empty base graph";
  KGACC_CHECK(population_->TotalTriples() > 0) << "base graph without triples";
  race_.Offer(population_->NumClusters(), rng_);
  capacity_ = std::max<uint64_t>(options_.min_units, options_.batch_units);
  return std::make_unique<Reevaluation>(this, "initialize");
}

std::unique_ptr<Campaign> ReservoirIncrementalEvaluator::UpdateCampaign(
    uint64_t first_new_cluster, uint64_t count) {
  KGACC_CHECK(race_.Offered() > 0) << "call Initialize() first";
  KGACC_CHECK(first_new_cluster == race_.Offered())
      << "an update must start at the first cluster not yet offered ("
      << race_.Offered() << "), not at " << first_new_cluster;
  KGACC_CHECK(count <= population_->NumClusters() - first_new_cluster)
      << "update range exceeds population (apply deltas to the population "
         "before calling ApplyUpdate)";
  // The reservoir alone carries over; the update's arrivals before its last
  // member's time displace the latest members.
  race_.Truncate(capacity_);
  race_.Offer(count, rng_);
  ++update_counter_;
  return std::make_unique<Reevaluation>(
      this, StrFormat("update-%llu",
                      static_cast<unsigned long long>(update_counter_)));
}

}  // namespace kgacc
