#include "core/kgeval/kgeval_baseline.h"

#include <cmath>
#include <queue>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace kgacc {

/// The control/inference loop, one annotation pick a step.
class KgEvalBaseline::Picks final : public Campaign {
 public:
  Picks(const KgEvalBaseline* baseline, Annotator* annotator,
        TelemetrySink* telemetry)
      : baseline_(*baseline),
        annotator_(annotator),
        telemetry_(telemetry),
        n_(baseline->graph_.NumTriples()),
        start_seconds_(annotator->ElapsedSeconds()),
        start_ledger_(annotator->ledger()),
        state_(n_, LabelState::kUnknown),
        label_(n_, 0),
        confidence_(n_, 0.0),
        hop_of_(n_, 0),
        visited_epoch_(n_, 0) {
    KGACC_CHECK(n_ > 0);
  }

  bool Done() const override { return labeled_ >= n_; }

  void Step() override {
    KGACC_CHECK(!Done()) << "Step() on a finished campaign";
    WallTimer machine;
    // Control mechanism: argmax coverage gain over all unlabeled triples.
    // This whole-graph scan per pick is what makes KGEval machine-expensive.
    uint32_t best = n_;
    uint64_t best_gain = 0;
    for (uint32_t u = 0; u < n_; ++u) {
      if (state_[u] != LabelState::kUnknown) continue;
      uint64_t gain = 0;
      ForEachWithinHops(u, [&](uint32_t v, uint32_t) {
        if (state_[v] == LabelState::kUnknown) ++gain;
      });
      if (best == n_ || gain > best_gain) {
        best = u;
        best_gain = gain;
      }
    }
    KGACC_CHECK(best < n_);

    const Options& options = baseline_.options_;
    label_[best] = annotator_->Annotate(baseline_.graph_.RefOf(best)) ? 1 : 0;
    state_[best] = LabelState::kAnnotated;
    confidence_[best] = options.annotation_confidence;
    ++triples_annotated_;
    // Propagate the label outward with confidence decay.
    ForEachWithinHops(best, [&](uint32_t v, uint32_t hops) {
      const double conf = options.annotation_confidence *
                          std::pow(options.decay_per_hop, hops);
      if (conf >= options.accept_threshold &&
          state_[v] != LabelState::kAnnotated && conf > confidence_[v]) {
        state_[v] = LabelState::kInferred;
        label_[v] = label_[best];
        confidence_[v] = conf;
      }
    });
    labeled_ = 0;
    for (uint32_t u = 0; u < n_; ++u) {
      if (state_[u] != LabelState::kUnknown) ++labeled_;
    }
    machine_seconds_ += machine.ElapsedSeconds();

    if (Done() && telemetry_ != nullptr) {
      const EvaluationResult result = Result();
      telemetry_->BeginCampaign(result.design, "");
      telemetry_->OnRound(CampaignRound{
          .round = 1,
          .cost_seconds = result.annotation_seconds,
          .units = result.estimate.num_units,
          .estimate = result.estimate.mean,
          .ci_lower = 0.0,
          .ci_upper = 1.0,
          .moe = 1.0,
          .triples_annotated = result.ledger.triples_annotated,
          .entities_identified = result.ledger.entities_identified});
      telemetry_->EndCampaign(false);
    }
  }

  EvaluationResult Result() const override {
    const KgEvalBaseline::Result summary = Summary();
    EvaluationResult result;
    result.design = "KGEval";
    result.estimate.mean = summary.estimated_accuracy;
    result.estimate.num_units = summary.triples_annotated;
    result.rounds = summary.triples_annotated;  // one pick per round.
    result.ledger = summary.ledger;
    result.annotation_seconds = summary.annotation_seconds;
    result.machine_seconds = summary.machine_seconds;
    return result;
  }

  /// The baseline's own report of the picks so far.
  KgEvalBaseline::Result Summary() const {
    KgEvalBaseline::Result result;
    uint64_t correct = 0;
    for (uint32_t u = 0; u < n_; ++u) {
      if (label_[u]) ++correct;
      if (state_[u] == LabelState::kInferred) ++result.triples_inferred;
    }
    result.estimated_accuracy = static_cast<double>(correct) / n_;
    result.triples_annotated = triples_annotated_;
    result.machine_seconds = machine_seconds_;
    result.annotation_seconds = annotator_->ElapsedSeconds() - start_seconds_;
    result.ledger = annotator_->ledger().Since(start_ledger_);
    return result;
  }

 private:
  enum class LabelState : uint8_t { kUnknown, kInferred, kAnnotated };

  /// Calls visit(v, hops) for every triple v within max_hops coupling hops
  /// of `source`, breadth-first (bounded BFS).
  template <typename Visit>
  void ForEachWithinHops(uint32_t source, Visit visit) {
    ++epoch_;
    std::queue<uint32_t> frontier;
    frontier.push(source);
    visited_epoch_[source] = epoch_;
    hop_of_[source] = 0;
    while (!frontier.empty()) {
      const uint32_t u = frontier.front();
      frontier.pop();
      if (hop_of_[u] >= baseline_.options_.max_hops) continue;
      for (uint32_t v : baseline_.graph_.Neighbors(u)) {
        if (visited_epoch_[v] == epoch_) continue;
        visited_epoch_[v] = epoch_;
        hop_of_[v] = hop_of_[u] + 1;
        visit(v, hop_of_[v]);
        frontier.push(v);
      }
    }
  }

  const KgEvalBaseline& baseline_;
  Annotator* const annotator_;
  TelemetrySink* const telemetry_;
  const uint32_t n_;
  const double start_seconds_;
  const AnnotationLedger start_ledger_;

  std::vector<LabelState> state_;
  std::vector<uint8_t> label_;
  std::vector<double> confidence_;
  std::vector<uint32_t> hop_of_;  ///< scratch for bounded BFS.
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;

  uint64_t labeled_ = 0;
  uint64_t triples_annotated_ = 0;
  double machine_seconds_ = 0.0;
};

KgEvalBaseline::KgEvalBaseline(const TripleView& kg, const Options& options)
    : options_(options), graph_(kg, options.coupling) {
  KGACC_CHECK(options_.decay_per_hop > 0.0 && options_.decay_per_hop <= 1.0);
  KGACC_CHECK(options_.max_hops >= 1);
}

std::unique_ptr<Campaign> KgEvalBaseline::MakeCampaign(
    Annotator* annotator, TelemetrySink* telemetry) const {
  return std::make_unique<Picks>(this, annotator, telemetry);
}

KgEvalBaseline::Result KgEvalBaseline::Run(Annotator* annotator) {
  Picks picks(this, annotator, /*telemetry=*/nullptr);
  RunCampaign(picks, /*control=*/nullptr);
  return picks.Summary();
}

}  // namespace kgacc
