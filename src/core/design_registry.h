#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "kg/kg_view.h"
#include "labels/annotator.h"
#include "util/result.h"

namespace kgacc {

/// The one place a sampling design is assembled: a fixed, name-keyed table of
/// the built-in designs, so benches, the CLI and the daemon select designs by
/// name instead of hand-rolled switch blocks. A new design is a
/// UnitSampler/UnitEstimator pair (core/engine.h) plus one row in the table;
/// code outside the library builds an EngineCampaign and calls RunCampaign.
///
/// Built-in names:
///   - static: "srs", "rcs", "wcs", "twcs", "twcs+strat" (the last uses size
///     stratification with EvaluationOptions::num_strata strata);
///   - "twcs+pilot": TWCS with m chosen by an annotated pilot (Eq 12);
///   - incremental: "rs", "ss", the base campaign of an IncrementalEvaluator
///     on the current graph;
///   - "kgeval": the KGEval baseline (needs a materialized KnowledgeGraph;
///     no statistical guarantee, never reports convergence).
///
/// Every built-in honours EvaluationOptions::telemetry with per-round
/// campaign traces (see core/telemetry.h). The table is immutable, so the
/// registry needs no lock.
class DesignRegistry {
 public:
  /// The process-wide registry of the built-in designs.
  static const DesignRegistry& Global();

  /// Builds one campaign of design `name`, ready for its first Step(). The
  /// campaign borrows `view` and `annotator`, which must outlive it, and
  /// ignores EvaluationOptions::control, which only RunCampaign consults.
  /// Errors on unknown names (the message lists the known designs), on
  /// options CheckEvaluationOptions refuses, on a view without triples, and
  /// on designs that cannot run on `view` (e.g. "kgeval" on a sizes-only
  /// population).
  Result<std::unique_ptr<Campaign>> MakeCampaign(
      const std::string& name, const KgView& view, Annotator* annotator,
      const EvaluationOptions& options) const;

  /// Runs one campaign of design `name` to completion: MakeCampaign, then
  /// RunCampaign with EvaluationOptions::control.
  Result<EvaluationResult> Run(const std::string& name, const KgView& view,
                               Annotator* annotator,
                               const EvaluationOptions& options) const;

  bool Contains(const std::string& name) const;

  /// The NotFound status reported for an unknown design name, listing the
  /// built-in designs. Shared by Run(), the kgacc_eval CLI, and the serve
  /// start-campaign path so the listing can never drift between surfaces.
  Status UnknownDesign(const std::string& name) const;

  /// All design names, sorted.
  std::vector<std::string> Names() const;

  /// One-line description of a design ("" for unknown names).
  std::string Description(const std::string& name) const;
};

}  // namespace kgacc
