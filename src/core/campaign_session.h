#pragma once

#include <cstdint>
#include <string>

#include "core/evaluation.h"
#include "labels/annotator_spec.h"

namespace kgacc {

/// The complete serializable identity of a (possibly suspended) campaign
/// session: everything needed to re-create the campaign from scratch and
/// replay it to the suspension point.
///
/// Deliberately *not* a dump of sampler/estimator internals. The whole
/// pipeline is deterministic given (graph, design, options, annotator spec):
/// samplers draw from seeded Rngs, and annotation labels/cost are pure
/// functions of the set of annotated triples (the annotator's determinism
/// contract, independent of thread count). So resuming = building a fresh
/// Campaign from the registry and calling its Step() `rounds_completed`
/// times before serving it (ServeSession's constructor) — bit-identical to
/// the original run, trace included, for every registry design, without
/// nine design-specific snapshot formats. The rounds replayed cost no
/// *simulated* annotation effort beyond the original (set semantics), only
/// machine time.
///
/// EvaluationOptions' borrowed pointers (telemetry, control) are runtime
/// wiring, not state: Save writes only the value fields and Restore leaves
/// the pointers null.
struct CampaignSessionState {
  std::string design;           ///< registry design name ("twcs", "rs", ...).
  std::string graph;            ///< graph name in the serve GraphStore.
  uint64_t rounds_completed = 0;  ///< rounds finished before suspension.
  EvaluationOptions options;    ///< value fields only (see above).
  AnnotatorSpec annotator;
};

}  // namespace kgacc
