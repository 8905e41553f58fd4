#include "core/grouped_evaluator.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/engine.h"
#include "core/optimal_m.h"
#include "estimators/unit_estimators.h"
#include "kg/cluster_population.h"
#include "sampling/unit_samplers.h"
#include "util/string_util.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgacc {

namespace {

/// TWCS over one group's virtual clusters (the group's triples within one
/// subject cluster): a TwcsUnitSampler over the virtual cluster sizes, whose
/// units are translated back to the *parent* cluster id and offsets so
/// annotation cost-sharing with other groups works unchanged.
class VirtualTwcsSampler : public UnitSampler {
 public:
  VirtualTwcsSampler(const std::vector<GroupedEvaluator::VirtualCluster>& clusters,
                     uint64_t m)
      : clusters_(clusters), sizes_(Sizes(clusters)), twcs_(sizes_, m) {}

  std::vector<SampleUnit> NextBatch(uint64_t n, Rng& rng) override {
    std::vector<SampleUnit> units = twcs_.NextBatch(n, rng);
    for (SampleUnit& unit : units) {
      const GroupedEvaluator::VirtualCluster& vc = clusters_[unit.cluster];
      unit.cluster = vc.parent_cluster;
      for (uint64_t& offset : unit.offsets) offset = vc.offsets[offset];
    }
    return units;
  }

 private:
  static ClusterPopulation Sizes(
      const std::vector<GroupedEvaluator::VirtualCluster>& clusters) {
    std::vector<uint32_t> sizes;
    sizes.reserve(clusters.size());
    for (const GroupedEvaluator::VirtualCluster& vc : clusters) {
      sizes.push_back(static_cast<uint32_t>(vc.offsets.size()));
    }
    return ClusterPopulation(std::move(sizes));
  }

  const std::vector<GroupedEvaluator::VirtualCluster>& clusters_;
  ClusterPopulation sizes_;  // must outlive twcs_, which borrows it.
  TwcsUnitSampler twcs_;
};

}  // namespace

GroupedEvaluator::GroupedEvaluator(const TripleView& kg,
                                   Annotator* annotator,
                                   EvaluationOptions options)
    : kg_(kg), annotator_(annotator), options_(options) {
  KGACC_CHECK(annotator_ != nullptr);
  KGACC_CHECK(kg_.TotalTriples() > 0);
}

GroupedEvaluator::GroupResult GroupedEvaluator::EvaluateGroup(
    uint32_t group, const std::vector<VirtualCluster>& clusters) {
  GroupResult result;
  result.group = group;
  for (const VirtualCluster& vc : clusters) {
    result.population_triples += vc.offsets.size();
  }
  const uint64_t m = ResolveSecondStageSize(options_, annotator_->cost_model(),
                                            /*stats=*/nullptr);

  // Tiny groups: annotate everything instead of sampling (census).
  if (result.population_triples <= options_.min_units * m) {
    EvaluationResult& evaluation = result.evaluation;
    evaluation.design = "TWCS/group";
    const AnnotationLedger start_ledger = annotator_->ledger();
    const double start_seconds = annotator_->ElapsedSeconds();
    std::vector<TripleRef> refs;
    refs.reserve(result.population_triples);
    for (const VirtualCluster& vc : clusters) {
      for (uint64_t offset : vc.offsets) {
        refs.push_back(TripleRef{vc.parent_cluster, offset});
      }
    }
    std::vector<uint8_t> labels(refs.size());
    annotator_->AnnotateBatch(std::span<const TripleRef>(refs), labels.data());
    uint64_t correct = 0;
    for (uint8_t label : labels) correct += label != 0;
    evaluation.estimate.mean = static_cast<double>(correct) /
                               static_cast<double>(result.population_triples);
    evaluation.estimate.variance_of_mean = 0.0;  // census: no sampling error.
    evaluation.estimate.num_units = result.population_triples;
    evaluation.moe = 0.0;
    evaluation.converged = true;
    evaluation.rounds = 1;
    evaluation.ledger = annotator_->ledger().Since(start_ledger);
    evaluation.annotation_seconds =
        annotator_->ElapsedSeconds() - start_seconds;
    if (options_.telemetry != nullptr) {
      // A census has no sampling trajectory; report the terminal state as a
      // single exact round so per-group traces stay complete.
      options_.telemetry->BeginCampaign(
          "TWCS/group",
          StrFormat("group-%llu/census",
                    static_cast<unsigned long long>(group)));
      options_.telemetry->OnRound(CampaignRound{
          .round = 1,
          .cost_seconds = evaluation.annotation_seconds,
          .units = evaluation.estimate.num_units,
          .estimate = evaluation.estimate.mean,
          .ci_lower = evaluation.estimate.mean,
          .ci_upper = evaluation.estimate.mean,
          .moe = 0.0,
          .triples_annotated = evaluation.ledger.triples_annotated,
          .entities_identified = evaluation.ledger.entities_identified});
      options_.telemetry->EndCampaign(true);
    }
    return result;
  }

  VirtualTwcsSampler sampler(clusters, m);
  TwcsUnitEstimator estimator;
  EvaluationOptions group_options = options_;
  group_options.seed = HashCombine(options_.seed, group);
  result.evaluation =
      EvaluationEngine(annotator_, group_options)
          .Run({.design_name = "TWCS/group",
                .sampler = &sampler,
                .estimator = &estimator,
                .telemetry_label = StrFormat(
                    "group-%llu", static_cast<unsigned long long>(group))});
  return result;
}

std::vector<GroupedEvaluator::GroupResult> GroupedEvaluator::EvaluateAll(
    const GroupFn& group_of, uint64_t min_group_triples) {
  // Bucket every triple into (group, subject-cluster) virtual clusters.
  std::unordered_map<uint32_t, std::unordered_map<uint64_t, VirtualCluster>>
      buckets;
  for (uint64_t c = 0; c < kg_.NumClusters(); ++c) {
    const uint64_t size = kg_.ClusterSize(c);
    for (uint64_t offset = 0; offset < size; ++offset) {
      const uint32_t group = group_of(kg_.TripleAt(TripleRef{c, offset}));
      VirtualCluster& vc = buckets[group][c];
      vc.parent_cluster = c;
      vc.offsets.push_back(offset);
    }
  }

  struct GroupBundle {
    uint32_t group;
    uint64_t triples;
    std::vector<VirtualCluster> clusters;
  };
  std::vector<GroupBundle> bundles;
  for (auto& [group, by_cluster] : buckets) {
    GroupBundle bundle;
    bundle.group = group;
    bundle.triples = 0;
    for (auto& [cluster_index, vc] : by_cluster) {
      bundle.triples += vc.offsets.size();
      bundle.clusters.push_back(std::move(vc));
    }
    if (bundle.triples < min_group_triples) continue;
    // Deterministic cluster order within the group.
    std::sort(bundle.clusters.begin(), bundle.clusters.end(),
              [](const VirtualCluster& a, const VirtualCluster& b) {
                return a.parent_cluster < b.parent_cluster;
              });
    bundles.push_back(std::move(bundle));
  }
  // Largest groups first: their identifications are most likely to be
  // reusable by later (smaller) groups.
  std::sort(bundles.begin(), bundles.end(),
            [](const GroupBundle& a, const GroupBundle& b) {
              return a.triples != b.triples ? a.triples > b.triples
                                            : a.group < b.group;
            });

  std::vector<GroupResult> results;
  results.reserve(bundles.size());
  for (const GroupBundle& bundle : bundles) {
    results.push_back(EvaluateGroup(bundle.group, bundle.clusters));
  }
  return results;
}

std::vector<GroupedEvaluator::GroupResult>
GroupedEvaluator::EvaluatePerPredicate(uint64_t min_group_triples) {
  return EvaluateAll([](const Triple& t) { return t.predicate; },
                     min_group_triples);
}

}  // namespace kgacc
