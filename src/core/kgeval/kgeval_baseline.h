#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/campaign.h"
#include "core/kgeval/coupling_graph.h"
#include "core/telemetry.h"
#include "cost/cost_model.h"
#include "kg/triple_view.h"
#include "labels/annotator.h"

namespace kgacc {

/// Simplified C++ reimplementation of the KGEval baseline (Ojha & Talukdar
/// 2017) that the paper compares against in Table 6. The control mechanism
/// greedily selects the unlabeled triple whose annotation would reach the
/// most unlabeled triples through coupling constraints (an expensive
/// whole-graph scan per pick — the source of KGEval's machine-time blowup),
/// annotates it, and propagates the label along coupling edges with per-hop
/// confidence decay. The final accuracy estimate is the fraction of triples
/// labeled true among all (annotated + inferred) labels.
///
/// Faithful properties vs. the paper's description (Section 8):
///   - estimation is NOT statistically unbiased (propagation errors leak in);
///   - no confidence interval is available;
///   - machine time is orders of magnitude above sampling-based designs;
///   - annotation count is comparable to / larger than TWCS.
class KgEvalBaseline {
 public:
  struct Options {
    /// Confidence assigned to a human annotation.
    double annotation_confidence = 1.0;
    /// Multiplicative confidence decay per coupling hop.
    double decay_per_hop = 0.7;
    /// Minimum confidence for an inferred label to be accepted.
    double accept_threshold = 0.3;
    /// Propagation radius in hops.
    uint32_t max_hops = 2;
    /// Coupling graph construction knobs.
    CouplingGraph::Options coupling;
  };

  struct Result {
    double estimated_accuracy = 0.0;
    uint64_t triples_annotated = 0;
    uint64_t triples_inferred = 0;
    double machine_seconds = 0.0;     ///< control + inference machine time.
    double annotation_seconds = 0.0;  ///< simulated human time (Eq 4).
    AnnotationLedger ledger;
  };

  KgEvalBaseline(const TripleView& kg, const Options& options);

  /// Runs the full control/inference loop until every triple carries a
  /// label, charging human effort to `annotator`.
  Result Run(Annotator* annotator);

  /// The same loop as a campaign: one "round" of KGEval is one annotation
  /// pick. Once every triple is labeled, `telemetry` (borrowed, may be null)
  /// receives the terminal state as a single round — KGEval has no
  /// per-round estimate trajectory. The result reports moe 1.0 and never
  /// converges: the estimate carries no statistical guarantee. Borrows this
  /// baseline and `annotator`.
  std::unique_ptr<Campaign> MakeCampaign(Annotator* annotator,
                                         TelemetrySink* telemetry) const;

 private:
  class Picks;

  Options options_;
  CouplingGraph graph_;
};

}  // namespace kgacc
