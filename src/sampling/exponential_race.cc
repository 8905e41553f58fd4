#include "sampling/exponential_race.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace kgacc {

namespace {

using Arrival = ExponentialRace::Arrival;

bool Earlier(const Arrival& a, const Arrival& b) { return a.time < b.time; }

/// A standard exponential deviate, E = -ln(u).
double Exponential(Rng& rng) { return -std::log(rng.UniformDoublePositive()); }

}  // namespace

void ExponentialRace::Offer(uint64_t count, Rng& rng) {
  const uint64_t first = offered_;
  const SubsetView segment(population_, first, count);
  const uint64_t mass = segment.TotalTriples();
  offered_ += count;
  offered_mass_ += mass;
  if (mass == 0 || horizon_ == 0.0) return;

  std::vector<Arrival> entrants;
  if (static_cast<double>(mass) * horizon_ > static_cast<double>(count)) {
    // More events expected than the segment has clusters: draw each
    // cluster's own clock instead.
    for (uint64_t c = 0; c < count; ++c) {
      const uint64_t size = segment.ClusterSize(c);
      if (size == 0) continue;
      const double time = Exponential(rng) / static_cast<double>(size);
      if (time <= horizon_) entrants.push_back(Arrival{first + c, time});
    }
    std::stable_sort(entrants.begin(), entrants.end(), Earlier);
  } else {
    // The segment's own rate-W stream over [0, H]: events come in time
    // order, so a cluster's first event is its arrival.
    const TriplePrefixIndex index(segment);
    std::unordered_set<uint64_t> seen;
    const double rate = static_cast<double>(mass);
    for (double time = Exponential(rng) / rate; time <= horizon_;
         time += Exponential(rng) / rate) {
      const uint64_t cluster = first + index.SizeWeightedCluster(rng);
      if (seen.insert(cluster).second) {
        entrants.push_back(Arrival{cluster, time});
      }
    }
  }
  for (const Arrival& entrant : entrants) {
    arrived_mass_ += population_.ClusterSize(entrant.cluster);
  }
  const auto old_end = static_cast<std::ptrdiff_t>(arrivals_.size());
  arrivals_.insert(arrivals_.end(), entrants.begin(), entrants.end());
  std::inplace_merge(arrivals_.begin(), arrivals_.begin() + old_end,
                     arrivals_.end(), Earlier);
}

void ExponentialRace::Grow(uint64_t k, Rng& rng) {
  if (arrivals_.size() >= k || Exhausted()) return;
  if (!offered_view_ || offered_view_->NumClusters() != offered_) {
    offered_view_ = std::make_unique<SubsetView>(population_, 0, offered_);
    offered_index_ = std::make_unique<TriplePrefixIndex>(*offered_view_);
  }
  std::unordered_set<uint64_t> arrived;
  for (const Arrival& arrival : arrivals_) arrived.insert(arrival.cluster);
  const double rate = static_cast<double>(offered_mass_);
  while (arrivals_.size() < k && !Exhausted()) {
    // The next arrival takes offered/out-mass events on average; once that
    // reaches the number of clusters still out, time them all directly.
    const uint64_t out = offered_ - arrivals_.size();
    const uint64_t out_mass = offered_mass_ - arrived_mass_;
    if (static_cast<__uint128_t>(out) * out_mass <= offered_mass_) {
      ArriveRest(arrived, rng);
      return;
    }
    horizon_ += Exponential(rng) / rate;
    const uint64_t cluster = offered_index_->SizeWeightedCluster(rng);
    if (arrived.insert(cluster).second) {
      arrivals_.push_back(Arrival{cluster, horizon_});
      arrived_mass_ += population_.ClusterSize(cluster);
    }
  }
}

void ExponentialRace::ArriveRest(const std::unordered_set<uint64_t>& arrived,
                                 Rng& rng) {
  // Memoryless clocks: a cluster still out at H rings at H + E/w.
  std::vector<Arrival> rest;
  for (uint64_t c = 0; c < offered_; ++c) {
    const uint64_t size = population_.ClusterSize(c);
    if (size == 0 || arrived.contains(c)) continue;
    rest.push_back(
        Arrival{c, horizon_ + Exponential(rng) / static_cast<double>(size)});
    arrived_mass_ += size;
  }
  std::stable_sort(rest.begin(), rest.end(), Earlier);
  if (!rest.empty()) horizon_ = rest.back().time;
  arrivals_.insert(arrivals_.end(), rest.begin(), rest.end());
}

void ExponentialRace::Truncate(uint64_t k) {
  if (arrivals_.size() <= k) return;
  for (auto it = arrivals_.begin() + static_cast<std::ptrdiff_t>(k);
       it != arrivals_.end(); ++it) {
    arrived_mass_ -= population_.ClusterSize(it->cluster);
  }
  horizon_ = k == 0 ? 0.0 : arrivals_[k - 1].time;
  arrivals_.resize(k);
}

Status ExponentialRace::Restore(uint64_t offered, double horizon,
                                std::vector<Arrival> arrivals) {
  KGACC_CHECK(offered_ == 0) << "Restore() on a race already offered clusters";
  if (offered > population_.NumClusters()) {
    return Status::FailedPrecondition(StrFormat(
        "state offered %llu clusters, population has %llu",
        static_cast<unsigned long long>(offered),
        static_cast<unsigned long long>(population_.NumClusters())));
  }
  if (!(horizon >= 0.0) || !std::isfinite(horizon)) {
    return Status::InvalidArgument("race horizon outside [0, inf)");
  }
  std::unordered_set<uint64_t> seen;
  uint64_t arrived_mass = 0;
  double previous = 0.0;
  for (const Arrival& arrival : arrivals) {
    if (arrival.cluster >= offered) {
      return Status::FailedPrecondition(StrFormat(
          "arrival of cluster %llu, which was never offered",
          static_cast<unsigned long long>(arrival.cluster)));
    }
    if (!(arrival.time >= previous && arrival.time <= horizon)) {
      return Status::InvalidArgument(
          "arrival times must ascend within [0, horizon]");
    }
    if (!seen.insert(arrival.cluster).second) {
      return Status::InvalidArgument(
          StrFormat("cluster %llu arrives twice",
                    static_cast<unsigned long long>(arrival.cluster)));
    }
    const uint64_t size = population_.ClusterSize(arrival.cluster);
    if (size == 0) {
      return Status::InvalidArgument(
          StrFormat("cluster %llu has no triples and cannot arrive",
                    static_cast<unsigned long long>(arrival.cluster)));
    }
    previous = arrival.time;
    arrived_mass += size;
  }
  offered_ = offered;
  offered_mass_ = SubsetView(population_, 0, offered).TotalTriples();
  arrived_mass_ = arrived_mass;
  horizon_ = horizon;
  arrivals_ = std::move(arrivals);
  return Status::OK();
}

}  // namespace kgacc
