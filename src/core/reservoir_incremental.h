#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "util/status.h"

namespace kgacc {

/// Reservoir Incremental Evaluation — the paper's RS method (Section 6.1,
/// Algorithm 1). Maintains an Efraimidis–Spirakis weighted sample of entity
/// clusters (key u^(1/M_i), keep the largest keys) over the growing cluster
/// stream; each new update batch's per-entity deltas are offered as
/// independent clusters so that sampling weights never change retroactively.
///
/// The "top-capacity by key" view kept here is exactly the A-Res reservoir
/// state; when the estimate's MoE exceeds the target after an update, the
/// reservoir grows by batch_units (the paper's fallback of drawing more
/// cluster samples via static evaluation), admitting the next-largest keys.
///
/// Annotations ride on the shared SimulatedAnnotator: a cluster that leaves
/// and later re-enters the reservoir reuses its cached labels at zero cost;
/// evicted clusters simply stop contributing to the estimator (the paper's
/// "discarded annotations").
class ReservoirIncrementalEvaluator final : public IncrementalEvaluator {
 public:
  using IncrementalEvaluator::IncrementalEvaluator;

  /// Initialize feeds all clusters currently in the population into the
  /// reservoir; an update offers the clusters [first_new_cluster, +count),
  /// the deltas of one batch. Each step's campaign runs one reservoir
  /// re-evaluation round a step until the MoE target is met.
  std::unique_ptr<Campaign> InitializeCampaign() override;
  std::unique_ptr<Campaign> UpdateCampaign(uint64_t first_new_cluster,
                                           uint64_t count) override;

  /// Current reservoir size (first-stage sample units).
  uint64_t SampleSize() const { return capacity_; }

  /// Total clusters ever offered (for Proposition 3 style accounting).
  uint64_t ClustersSeen() const { return entries_.size(); }

  /// The estimate over the reservoir's recorded annotations. Requires
  /// Initialize() or Restore() first.
  Estimate CurrentEstimate() const override;

  /// Serializable evaluation state (see core/state_io.h).
  struct ReservoirSnapshot {
    uint64_t capacity = 0;
    /// Every offered cluster with its A-Res key.
    std::vector<std::pair<uint64_t, double>> entries;
    /// Per-cluster recorded annotations: (cluster, correct, sampled).
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> annotated;
  };

  /// Captures the full evaluation state; requires Initialize() was called.
  ReservoirSnapshot Snapshot() const;

  /// Restores a snapshot into this never-initialized evaluator. Validates
  /// cluster ids against the current population; recorded annotations are
  /// reused, so nothing is re-annotated. New clusters offered after a
  /// restore draw keys from a fresh (seeded) stream — statistically
  /// equivalent to the uninterrupted run, though not bit-identical to it.
  Status Restore(const ReservoirSnapshot& snapshot);

 private:
  struct KeyedCluster {
    double key;
    uint64_t cluster;
  };

  /// One round rebuilds the top-`capacity_` sample, annotates entrants and
  /// recomputes the estimate; a round that does not stop grows the capacity
  /// (the paper's fallback of drawing more cluster samples).
  class Reevaluation;

  /// Generates the A-Res key for a cluster (deterministic per cluster).
  double MakeKey(uint64_t cluster);

  /// The cluster's second-stage sample: min(size, m) offsets from a
  /// deterministic per-cluster stream, so re-entering clusters always
  /// re-draw the same triples and reuse their cached annotations.
  std::vector<uint64_t> SecondStageOffsets(uint64_t cluster) const;

  /// Annotates every not-yet-annotated cluster among the current top-`count`
  /// reservoir entries in one AnnotateGroups call, so the annotator's
  /// concurrent path sees crowd-scale batches instead of m triples at a
  /// time, and records each entrant's sampled accuracy.
  void AnnotateReservoirEntrants(uint64_t count);

  std::vector<KeyedCluster> entries_;  ///< every cluster ever offered.
  uint64_t capacity_ = 0;              ///< reservoir size |R|.
  uint64_t update_counter_ = 0;        ///< ApplyUpdate calls (telemetry labels).

  /// Per-cluster sampled accuracy (correct, sampled), filled lazily.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> sampled_accuracy_;
};

}  // namespace kgacc
