#include "core/optimal_m.h"

#include <algorithm>
#include <span>

#include "sampling/unit_samplers.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kgacc {

uint64_t ResolveSecondStageSize(const EvaluationOptions& options,
                                const CostModel& cost_model,
                                const ClusterPopulationStats* stats) {
  if (options.m > 0) return options.m;
  if (stats != nullptr) {
    return ChooseOptimalM(*stats, cost_model, options.Alpha(),
                          options.moe_target)
        .best_m;
  }
  // Paper guideline (Section 7.2.2): the optimum lands in 3..5 across all
  // studied KGs; 5 is a safe default without population knowledge.
  return 5;
}

OptimalMResult ChooseOptimalM(const ClusterPopulationStats& pop,
                              const CostModel& cost_model, double alpha,
                              double epsilon, uint64_t m_max) {
  KGACC_CHECK(m_max >= 1);
  OptimalMResult result;
  result.predicted_cost_seconds.reserve(m_max);
  result.required_draws.reserve(m_max);
  double best_cost = 0.0;
  for (uint64_t m = 1; m <= m_max; ++m) {
    const double v = TwcsPerDrawVariance(pop, m);
    const uint64_t n = RequiredUnits(v, alpha, epsilon);
    const double cost =
        static_cast<double>(n) *
        (cost_model.c1_seconds + static_cast<double>(m) * cost_model.c2_seconds);
    result.predicted_cost_seconds.push_back(cost);
    result.required_draws.push_back(n);
    if (m == 1 || cost < best_cost) {
      best_cost = cost;
      result.best_m = m;
    }
  }
  return result;
}

ClusterPopulationStats BuildPopulationStats(const KgView& view,
                                            const TruthOracle& oracle) {
  ClusterPopulationStats pop;
  const uint64_t n = view.NumClusters();
  pop.sizes.resize(n);
  pop.accuracies.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t size = view.ClusterSize(i);
    pop.sizes[i] = size;
    pop.accuracies[i] = RealizedClusterAccuracy(oracle, i, size);
  }
  return pop;
}

Result<OptimalMResult> PilotOptimalM(const KgView& view,
                                     Annotator* annotator,
                                     double alpha, double epsilon,
                                     uint64_t pilot_clusters, uint64_t m_max,
                                     uint64_t seed) {
  if (pilot_clusters < 2) {
    return Status::InvalidArgument("pilot needs at least 2 clusters");
  }
  if (view.TotalTriples() == 0) {
    return Status::FailedPrecondition("empty graph");
  }
  Rng rng(seed);
  TwcsUnitSampler sampler(view, m_max);
  const std::vector<SampleUnit> draws = sampler.NextBatch(pilot_clusters, rng);

  // The whole pilot is one annotation batch, so the annotator's concurrent
  // path applies (labels are order-independent; identical to per-triple).
  std::vector<TripleRef> refs;
  for (const SampleUnit& draw : draws) {
    KGACC_CHECK(!draw.offsets.empty());
    for (uint64_t offset : draw.offsets) {
      refs.push_back(TripleRef{draw.cluster, offset});
    }
  }
  std::vector<uint8_t> labels(refs.size());
  annotator->AnnotateBatch(std::span<const TripleRef>(refs), labels.data());

  ClusterPopulationStats pilot;
  pilot.sizes.reserve(draws.size());
  pilot.accuracies.reserve(draws.size());
  const uint8_t* cursor = labels.data();
  for (const SampleUnit& draw : draws) {
    uint64_t correct = 0;
    for (size_t j = 0; j < draw.offsets.size(); ++j) correct += cursor[j];
    cursor += draw.offsets.size();
    pilot.sizes.push_back(view.ClusterSize(draw.cluster));
    pilot.accuracies.push_back(static_cast<double>(correct) /
                               static_cast<double>(draw.offsets.size()));
  }
  // The pilot clusters were drawn size-weighted; Eq 10 expects a population
  // census. Using the pilot as a pseudo-population keeps the search cheap
  // and is accurate enough to land in the flat 3..5 optimum region the paper
  // observes (Section 7.2.2).
  return ChooseOptimalM(pilot, annotator->cost_model(), alpha, epsilon, m_max);
}

}  // namespace kgacc
