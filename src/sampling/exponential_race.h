#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "kg/kg_view.h"
#include "kg/subset_view.h"
#include "sampling/srs.h"
#include "util/rng.h"
#include "util/status.h"

namespace kgacc {

/// Size-weighted cluster sampling without replacement over a growing cluster
/// stream, as an exponential race: A-Res (Efraimidis & Spirakis, IPL 2006)
/// in O(arrivals) instead of one key per cluster. A cluster of w triples runs
/// a rate-w Poisson clock, and the first k clusters to arrive are A-Res's k
/// largest keys u^(1/w), since its arrival time T = -ln(u)/w ranks clusters
/// in reverse key order. All clocks together form one rate-M stream whose
/// events land on the cluster holding a uniformly drawn triple ordinal, so
/// the race is simulated event by event through a TriplePrefixIndex over the
/// population's triple-offset column:
///
///  - Grow(k) draws events past the horizon H, the time simulated so far,
///    until k distinct clusters have arrived;
///  - Offer(count) appends the stream's next clusters (an update batch) and
///    draws only their own events over [0, H], so it costs O(entrants), not
///    O(N);
///  - Truncate(k) forgets the arrivals after the k-th and pulls H back to
///    its time, so the state stays O(k).
///
/// Once the clusters still out hold so little of the offered mass that the
/// next arrival would take more events than there are such clusters (a
/// census, or a 1 : 2^31 size skew), their times are drawn directly as
/// H + E/w, so the race always ends. A zero-size cluster never arrives.
///
/// Borrows `population`, which must outlive the race; it may grow, and the
/// race covers the clusters offered so far.
class ExponentialRace {
 public:
  struct Arrival {
    uint64_t cluster;
    double time;
  };

  explicit ExponentialRace(const KgView& population)
      : population_(population) {}

  /// Offers the clusters [Offered(), Offered() + count) of the population;
  /// those whose clocks ring by the horizon join the arrivals now.
  void Offer(uint64_t count, Rng& rng);

  /// Draws until at least k clusters have arrived, or every offered cluster
  /// with triples has.
  void Grow(uint64_t k, Rng& rng);

  /// Keeps the first k arrivals; the horizon becomes the k-th one's time.
  void Truncate(uint64_t k);

  /// Arrivals in time order; the first k are the size-weighted sample of k.
  const std::vector<Arrival>& Arrivals() const { return arrivals_; }
  double Horizon() const { return horizon_; }
  uint64_t Offered() const { return offered_; }

  /// True once every offered cluster with triples has arrived.
  bool Exhausted() const { return arrived_mass_ == offered_mass_; }

  /// Resumes a race saved as (Offered(), Horizon(), Arrivals()) in this
  /// never-offered one. Rejects, and leaves the race untouched, a state the
  /// population cannot have produced: clusters beyond it or arriving twice,
  /// a zero-size arrival, or times that do not ascend within [0, horizon].
  Status Restore(uint64_t offered, double horizon,
                 std::vector<Arrival> arrivals);

 private:
  /// Gives every offered cluster that has not arrived its time H + E/w.
  void ArriveRest(const std::unordered_set<uint64_t>& arrived, Rng& rng);

  const KgView& population_;
  uint64_t offered_ = 0;
  uint64_t offered_mass_ = 0;
  uint64_t arrived_mass_ = 0;
  double horizon_ = 0.0;
  std::vector<Arrival> arrivals_;
  /// Grow's index over [0, offered_), rebuilt after an Offer.
  std::unique_ptr<SubsetView> offered_view_;
  std::unique_ptr<TriplePrefixIndex> offered_index_;
};

}  // namespace kgacc
