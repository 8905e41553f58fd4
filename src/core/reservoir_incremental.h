#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "sampling/exponential_race.h"
#include "util/status.h"

namespace kgacc {

/// Reservoir Incremental Evaluation — the paper's RS method (Section 6.1,
/// Algorithm 1). Keeps an Efraimidis–Spirakis weighted reservoir of entity
/// clusters (weight M_i, the cluster's triple count) over the growing
/// cluster stream; each update batch's per-entity deltas are offered as
/// independent clusters, so sampling weights never change retroactively.
///
/// The reservoir is drawn as an exponential race (sampling/
/// exponential_race.h): the first `capacity` clusters to arrive are exactly
/// the A-Res top-`capacity` keys, so the state is O(reservoir), not one key
/// per cluster. An update draws only its own clusters' arrivals before the
/// current horizon; the ones that arrive displace the latest reservoir
/// members (Proposition 3's ~|R| ln(N_j/N_i) insertions). When the
/// estimate's MoE exceeds the target, the reservoir grows by batch_units (the
/// paper's fallback of drawing more cluster samples via static evaluation),
/// admitting the next arrivals.
///
/// Annotations are recorded per cluster: a cluster that leaves and later
/// re-enters the reservoir reuses its recorded accuracy at zero cost, and
/// evicted clusters simply stop contributing to the estimator (the paper's
/// "discarded annotations").
class ReservoirIncrementalEvaluator final : public IncrementalEvaluator {
 public:
  using IncrementalEvaluator::IncrementalEvaluator;

  /// Initialize offers all clusters currently in the population to the
  /// race; an update offers the clusters [first_new_cluster, +count), the
  /// deltas of one batch, which must start at the first cluster not yet
  /// offered. Each step's campaign runs one reservoir re-evaluation round a
  /// step until the MoE target is met.
  std::unique_ptr<Campaign> InitializeCampaign() override;
  std::unique_ptr<Campaign> UpdateCampaign(uint64_t first_new_cluster,
                                           uint64_t count) override;

  /// Current reservoir size (first-stage sample units).
  uint64_t SampleSize() const { return capacity_; }

  /// Total clusters ever offered (for Proposition 3 style accounting).
  uint64_t ClustersSeen() const { return race_.Offered(); }

  /// The estimate over the reservoir's recorded annotations. Requires
  /// Initialize() or Restore() first.
  Estimate CurrentEstimate() const override;

  /// Serializable evaluation state (see core/state_io.h): O(reservoir).
  struct ReservoirSnapshot {
    std::array<uint64_t, 4> rng_state{};  ///< the sampling stream.
    uint64_t capacity = 0;
    /// The race: clusters offered, horizon and time-ordered arrivals.
    uint64_t offered = 0;
    double horizon = 0.0;
    std::vector<ExponentialRace::Arrival> arrivals;
    /// Per-cluster recorded annotations: (cluster, correct, sampled).
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> annotated;
  };

  /// Captures the full evaluation state; requires Initialize() was called.
  ReservoirSnapshot Snapshot() const;

  /// Restores a snapshot into this never-initialized evaluator. Validates
  /// it against the current population; recorded annotations are reused, so
  /// nothing is re-annotated, and the sampling stream resumes where it was
  /// saved, so later updates are bit-identical to the uninterrupted run's.
  Status Restore(const ReservoirSnapshot& snapshot);

 private:
  /// One round annotates the reservoir's entrants and recomputes the
  /// estimate; a round that does not stop grows the reservoir (the paper's
  /// fallback of drawing more cluster samples). The reservoir is drawn
  /// whenever its capacity changes, so `capacity_` never exceeds the
  /// arrivals.
  class Reevaluation;

  /// The cluster's second-stage sample: min(size, m) offsets from a
  /// deterministic per-cluster stream, so re-entering clusters always
  /// re-draw the same triples and reuse their cached annotations.
  std::vector<uint64_t> SecondStageOffsets(uint64_t cluster) const;

  /// Annotates every not-yet-annotated cluster of the reservoir (the first
  /// `capacity_` arrivals) in one AnnotateGroups call, so the annotator's
  /// concurrent path sees crowd-scale batches instead of m triples at a
  /// time, and records each entrant's sampled accuracy.
  void AnnotateReservoirEntrants();

  ExponentialRace race_{*population_};
  uint64_t capacity_ = 0;        ///< reservoir size |R|.
  uint64_t update_counter_ = 0;  ///< ApplyUpdate calls (telemetry labels).

  /// Per-cluster sampled accuracy (correct, sampled), filled lazily.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> sampled_accuracy_;
};

}  // namespace kgacc
