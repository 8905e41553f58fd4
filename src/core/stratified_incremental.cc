#include "core/stratified_incremental.h"

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace kgacc {

void StratifiedIncrementalEvaluator::AddStratum(uint64_t first_cluster,
                                                uint64_t count) {
  KGACC_CHECK(count > 0) << "empty stratum";
  KGACC_CHECK(first_cluster <= population_->NumClusters() &&
              count <= population_->NumClusters() - first_cluster)
      << "update range exceeds population (apply deltas to the population "
         "before calling ApplyUpdate)";
  StratumState state;
  state.view = std::make_unique<SubsetView>(*population_, first_cluster, count);
  state.sampler = std::make_unique<TwcsUnitSampler>(*state.view, m_);
  state.triples = state.view->TotalTriples();
  state.first_cluster = first_cluster;
  state.count = count;
  total_triples_ += state.triples;
  strata_.push_back(std::move(state));
}

StratifiedIncrementalEvaluator::StratifiedSnapshot
StratifiedIncrementalEvaluator::Snapshot() const {
  StratifiedSnapshot snapshot;
  snapshot.rng_state = rng_.State();
  snapshot.strata.reserve(strata_.size());
  for (const StratumState& state : strata_) {
    snapshot.strata.push_back(StratumSnapshot{
        .first_cluster = state.first_cluster,
        .count = state.count,
        .triples = state.triples,
        .stat_count = state.stats.Count(),
        .stat_mean = state.stats.Mean(),
        .stat_m2 = state.stats.M2()});
  }
  return snapshot;
}

Status StratifiedIncrementalEvaluator::Restore(
    const StratifiedSnapshot& snapshot) {
  if (!strata_.empty()) {
    return Status::FailedPrecondition(
        "Restore() requires a never-initialized evaluator");
  }
  if (snapshot.strata.empty()) {
    return Status::InvalidArgument("empty snapshot");
  }
  if (!Rng::ValidState(snapshot.rng_state)) {
    return Status::InvalidArgument("all-zero sampling stream state");
  }
  // Validate everything before mutating state.
  uint64_t end = 0;
  for (const StratumSnapshot& stratum : snapshot.strata) {
    if (stratum.first_cluster != end) {
      return Status::InvalidArgument(StrFormat(
          "stratum at cluster %llu does not start where the previous one "
          "ends (%llu): strata must tile [0, end) in order",
          static_cast<unsigned long long>(stratum.first_cluster),
          static_cast<unsigned long long>(end)));
    }
    // Written so that a huge stored range cannot wrap past the check.
    if (stratum.count == 0 ||
        stratum.first_cluster > population_->NumClusters() ||
        stratum.count > population_->NumClusters() - stratum.first_cluster) {
      return Status::FailedPrecondition(StrFormat(
          "stratum [%llu, +%llu) exceeds the population (%llu clusters)",
          static_cast<unsigned long long>(stratum.first_cluster),
          static_cast<unsigned long long>(stratum.count),
          static_cast<unsigned long long>(population_->NumClusters())));
    }
    end = stratum.first_cluster + stratum.count;
    const SubsetView view(*population_, stratum.first_cluster, stratum.count);
    if (view.TotalTriples() != stratum.triples) {
      return Status::FailedPrecondition(StrFormat(
          "stratum [%llu, +%llu): stored %llu triples, population has %llu "
          "(graph drifted since the state was saved)",
          static_cast<unsigned long long>(stratum.first_cluster),
          static_cast<unsigned long long>(stratum.count),
          static_cast<unsigned long long>(stratum.triples),
          static_cast<unsigned long long>(view.TotalTriples())));
    }
    // Accuracies lie in [0, 1], so their M2 is at most count / 4.
    if (!(stratum.stat_mean >= 0.0 && stratum.stat_mean <= 1.0) ||
        !(stratum.stat_m2 >= 0.0 &&
          stratum.stat_m2 <=
              0.25 * static_cast<double>(stratum.stat_count) * (1 + 1e-9))) {
      return Status::InvalidArgument(StrFormat(
          "stratum [%llu, +%llu): moments outside the range of accuracies",
          static_cast<unsigned long long>(stratum.first_cluster),
          static_cast<unsigned long long>(stratum.count)));
    }
  }
  for (const StratumSnapshot& stratum : snapshot.strata) {
    AddStratum(stratum.first_cluster, stratum.count);
    strata_.back().stats = RunningStats::Restore(
        stratum.stat_count, stratum.stat_mean, stratum.stat_m2);
  }
  rng_.SetState(snapshot.rng_state);
  return Status::OK();
}

void StratifiedIncrementalEvaluator::SampleStratum(size_t h, uint64_t units) {
  StratumState& state = strata_[h];
  const std::vector<SampleUnit> batch = state.sampler->NextBatch(units, rng_);
  // Streamed with the async bridge, the win is within the batch. There is no
  // cross-round speculation here: `rng_` persists across updates, so a
  // discarded speculative draw would shift every later update's draws.
  const std::vector<GroupLabels> labels = AnnotateGroups(
      *annotator_, batch.size(),
      [&](size_t d) {
        const uint64_t parent = state.view->ToParent(batch[d].cluster);
        std::vector<TripleRef> refs;
        for (uint64_t offset : batch[d].offsets) {
          refs.push_back(TripleRef{parent, offset});
        }
        return refs;
      });
  for (const GroupLabels& draw : labels) {
    state.stats.Add(static_cast<double>(draw.correct) /
                    static_cast<double>(draw.size));
  }
}

Estimate StratifiedIncrementalEvaluator::Combined() const {
  Estimate combined;
  for (const StratumState& state : strata_) {
    const double weight =
        static_cast<double>(state.triples) / static_cast<double>(total_triples_);
    combined.mean += weight * state.stats.Mean();
    combined.variance_of_mean +=
        weight * weight * state.stats.VarianceOfMean();
    combined.num_units += state.stats.Count();
  }
  return combined;
}

class StratifiedIncrementalEvaluator::DriveToTarget final
    : public PolicyCampaign {
 public:
  DriveToTarget(StratifiedIncrementalEvaluator* ss, size_t active,
                const std::string& label)
      : PolicyCampaign("SS", label, ss->annotator_, ss->options_,
                       ss->options_.telemetry),
        ss_(ss),
        active_(active) {
    // The newest stratum needs a minimal number of draws for a trustworthy
    // variance before the combined MoE can be believed.
    WallTimer machine;
    const uint64_t min_active_units = ss_->strata_.size() == 1
                                          ? options().min_units
                                          : options().min_stratum_units;
    const uint64_t drawn = ss_->strata_[active_].stats.Count();
    if (drawn < min_active_units) {
      ss_->SampleStratum(active_, min_active_units - drawn);
    }
    machine_seconds_ += machine.ElapsedSeconds();
  }

 private:
  RoundOutcome RunRound() override {
    RoundOutcome outcome;
    outcome.estimate = ss_->Combined();
    outcome.moe = policy().MarginOfError(outcome.estimate);
    // The newest-stratum TWCS sampler draws with replacement: never
    // exhausts.
    outcome.exhausted = false;
    return outcome;
  }

  void Advance() override {
    WallTimer machine;
    ss_->SampleStratum(active_, options().batch_units);
    machine_seconds_ += machine.ElapsedSeconds();
  }

  StratifiedIncrementalEvaluator* ss_;
  const size_t active_;
};

std::unique_ptr<Campaign> StratifiedIncrementalEvaluator::InitializeCampaign() {
  KGACC_CHECK(strata_.empty()) << "Initialize() called twice";
  KGACC_CHECK(population_->NumClusters() > 0) << "empty base graph";
  AddStratum(0, population_->NumClusters());
  return std::make_unique<DriveToTarget>(this, 0, "initialize");
}

std::unique_ptr<Campaign> StratifiedIncrementalEvaluator::UpdateCampaign(
    uint64_t first_new_cluster, uint64_t count) {
  KGACC_CHECK(!strata_.empty()) << "call Initialize() first";
  const StratumState& last = strata_.back();
  KGACC_CHECK(first_new_cluster == last.first_cluster + last.count)
      << "an update must start at the first cluster not yet offered ("
      << last.first_cluster + last.count << "), not at " << first_new_cluster;
  // An empty update adds no stratum. Its campaign drives the newest stratum
  // as the last update left it, so it annotates nothing while the combined
  // MoE still meets the target (as RS re-evaluates an empty update).
  if (count == 0) {
    return std::make_unique<DriveToTarget>(this, strata_.size() - 1,
                                           "empty-update");
  }
  AddStratum(first_new_cluster, count);
  return std::make_unique<DriveToTarget>(
      this, strata_.size() - 1,
      StrFormat("update-%llu",
                static_cast<unsigned long long>(strata_.size() - 1)));
}

}  // namespace kgacc
