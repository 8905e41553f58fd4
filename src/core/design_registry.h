#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/evaluation.h"
#include "kg/kg_view.h"
#include "labels/annotator.h"
#include "util/result.h"

namespace kgacc {

/// Builds one evaluation campaign of a registered design, ready for its
/// first Step(). The campaign borrows `view` and `annotator`, which must
/// outlive it, and honours EvaluationOptions::telemetry; it ignores
/// EvaluationOptions::control, which only RunCampaign consults. Designs may
/// fail (e.g. "kgeval" on a sizes-only population).
using CampaignFactory = std::function<Result<std::unique_ptr<Campaign>>(
    const KgView& view, Annotator* annotator,
    const EvaluationOptions& options)>;

/// String-keyed registry of sampling designs, so benches and the CLI select
/// designs by name instead of hand-rolled switch blocks, and downstream code
/// can plug in new designs without touching the callers.
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
/// campaign traces (see core/telemetry.h).
class DesignRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in designs.
  static DesignRegistry& Global();

  /// Registers a design; errors on a duplicate name or empty name.
  Status Register(const std::string& name, const std::string& description,
                  CampaignFactory factory);

  /// Builds one campaign of design `name`; errors on unknown names (the
  /// message lists the known designs), on options CheckEvaluationOptions
  /// refuses, and on designs that cannot run on `view`.
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
  /// registered designs. Shared by Run(), the kgacc_eval CLI, and the serve
  /// start-campaign path so the listing can never drift between surfaces.
  Status UnknownDesign(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  /// One-line description of a design ("" for unknown names).
  std::string Description(const std::string& name) const;

 private:
  struct Entry {
    std::string description;
    CampaignFactory factory;
  };

  Status UnknownDesignLocked(const std::string& name) const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace kgacc
