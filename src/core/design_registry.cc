#include "core/design_registry.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/kgeval/kgeval_baseline.h"
#include "core/optimal_m.h"
#include "core/reservoir_incremental.h"
#include "core/stratified_incremental.h"
#include "core/stratified_source.h"
#include "core/telemetry.h"
#include "estimators/unit_estimators.h"
#include "kg/knowledge_graph.h"
#include "sampling/unit_samplers.h"
#include "stats/stratification.h"
#include "util/string_util.h"

namespace kgacc {

namespace {

/// A single-stage engine design: `sampler` draws the units `estimator`
/// combines, under the result label `design`.
std::unique_ptr<Campaign> MakeEngineCampaign(
    const char* design, Annotator* annotator, const EvaluationOptions& options,
    std::shared_ptr<UnitSampler> sampler,
    std::shared_ptr<UnitEstimator> estimator) {
  return std::make_unique<EngineCampaign>(annotator, options,
                                          EngineConfig{.design_name = design},
                                          std::move(sampler),
                                          std::move(estimator));
}

Result<std::unique_ptr<Campaign>> MakeSrs(const KgView& view,
                                          Annotator* annotator,
                                          const EvaluationOptions& options) {
  return MakeEngineCampaign("SRS", annotator, options,
                            std::make_shared<SrsUnitSampler>(view),
                            std::make_shared<SrsUnitEstimator>());
}

Result<std::unique_ptr<Campaign>> MakeRcs(const KgView& view,
                                          Annotator* annotator,
                                          const EvaluationOptions& options) {
  return MakeEngineCampaign(
      "RCS", annotator, options, std::make_shared<RcsUnitSampler>(view),
      std::make_shared<RcsUnitEstimator>(view.NumClusters(),
                                         view.TotalTriples()));
}

Result<std::unique_ptr<Campaign>> MakeWcs(const KgView& view,
                                          Annotator* annotator,
                                          const EvaluationOptions& options) {
  return MakeEngineCampaign("WCS", annotator, options,
                            std::make_shared<WcsUnitSampler>(view),
                            std::make_shared<WcsUnitEstimator>());
}

/// TWCS with second-stage size options.m, or the shared auto-m default.
Result<std::unique_ptr<Campaign>> MakeTwcs(const KgView& view,
                                           Annotator* annotator,
                                           const EvaluationOptions& options) {
  return MakeEngineCampaign(
      "TWCS", annotator, options,
      std::make_shared<TwcsUnitSampler>(
          view, ResolveSecondStageSize(options, annotator->cost_model(),
                                       /*stats=*/nullptr)),
      std::make_shared<TwcsUnitEstimator>());
}

/// TWCS with the second-stage size chosen by an annotated pilot (Eq 12).
/// The pilot's annotations stay cached in the annotator, so the campaign
/// reuses them for free; ledger/cost fields of the result — and of the
/// emitted campaign trace — cover pilot + campaign (the full bill of
/// selecting this design). For the trace this campaign is its TWCS
/// campaign's telemetry sink: it relabels the campaign and shifts each
/// round's cumulative fields by the pilot's bill before passing it on.
class PilotedTwcsCampaign final : public Campaign, public TelemetrySink {
 public:
  static kgacc::Result<std::unique_ptr<Campaign>> Make(
      const KgView& view, Annotator* annotator,
      const EvaluationOptions& options) {
    std::unique_ptr<PilotedTwcsCampaign> campaign(
        new PilotedTwcsCampaign(annotator, options.telemetry));
    EvaluationOptions pinned = options;
    if (pinned.m == 0) {
      const uint64_t pilot_clusters =
          options.pilot_size > 0 ? options.pilot_size
                                 : std::max<uint64_t>(options.min_units, 30);
      KGACC_ASSIGN_OR_RETURN(
          const OptimalMResult pilot,
          PilotOptimalM(view, annotator, options.Alpha(), options.moe_target,
                        pilot_clusters, /*m_max=*/20, options.seed));
      pinned.m = pilot.best_m;
    }
    campaign->pilot_ = annotator->ledger().Since(campaign->start_ledger_);
    campaign->pilot_seconds_ =
        annotator->ElapsedSeconds() - campaign->start_seconds_;
    if (options.telemetry != nullptr) pinned.telemetry = campaign.get();
    KGACC_ASSIGN_OR_RETURN(campaign->twcs_, MakeTwcs(view, annotator, pinned));
    return std::unique_ptr<Campaign>(std::move(campaign));
  }

  bool Done() const override { return twcs_->Done(); }
  void Step() override { twcs_->Step(); }
  EvaluationResult Result() const override {
    EvaluationResult result = twcs_->Result();
    result.design = "TWCS+pilot";
    result.ledger = annotator_->ledger().Since(start_ledger_);
    result.annotation_seconds = annotator_->ElapsedSeconds() - start_seconds_;
    return result;
  }

  void BeginCampaign(const std::string& design,
                     const std::string& label) override {
    (void)design;
    telemetry_->BeginCampaign("TWCS+pilot", label);
  }
  void OnRound(const CampaignRound& round) override {
    CampaignRound shifted = round;
    shifted.cost_seconds += pilot_seconds_;
    shifted.triples_annotated += pilot_.triples_annotated;
    shifted.entities_identified += pilot_.entities_identified;
    telemetry_->OnRound(shifted);
  }
  void EndCampaign(bool converged) override {
    telemetry_->EndCampaign(converged);
  }

 private:
  PilotedTwcsCampaign(Annotator* annotator, TelemetrySink* telemetry)
      : annotator_(annotator),
        telemetry_(telemetry),
        start_ledger_(annotator->ledger()),
        start_seconds_(annotator->ElapsedSeconds()) {}

  Annotator* const annotator_;
  TelemetrySink* const telemetry_;
  const AnnotationLedger start_ledger_;
  const double start_seconds_;
  AnnotationLedger pilot_;  ///< what the pilot annotated.
  double pilot_seconds_ = 0.0;
  std::unique_ptr<Campaign> twcs_;
};

/// The KGEval baseline behind the registry face. Estimation carries no
/// statistical guarantee: moe stays 1.0 and the campaign never "converges"
/// (Section 8 / Table 6 — the paper's point about this baseline).
Result<std::unique_ptr<Campaign>> MakeKgEval(const KgView& view,
                                             Annotator* annotator,
                                             const EvaluationOptions& options) {
  const auto* graph = dynamic_cast<const TripleView*>(&view);
  if (graph == nullptr) {
    return Status::FailedPrecondition(
        "design 'kgeval' needs addressable triples (a materialized "
        "KnowledgeGraph or a mmap-backed graph store), not a sizes-only "
        "population");
  }
  auto baseline =
      std::make_unique<KgEvalBaseline>(*graph, KgEvalBaseline::Options{});
  std::unique_ptr<Campaign> picks =
      baseline->MakeCampaign(annotator, options.telemetry);
  return std::unique_ptr<Campaign>(
      std::make_unique<OwningCampaign<KgEvalBaseline>>(std::move(baseline),
                                                       std::move(picks)));
}

/// The "rs"/"ss" designs: the base campaign of an incremental `Method` on
/// the whole current graph, owning the evaluator it runs on.
template <typename Method>
Result<std::unique_ptr<Campaign>> MakeIncrementalBase(
    const KgView& view, Annotator* annotator,
    const EvaluationOptions& options) {
  auto evaluator = std::make_unique<Method>(&view, annotator, options);
  std::unique_ptr<Campaign> base = evaluator->InitializeCampaign();
  return std::unique_ptr<Campaign>(
      std::make_unique<OwningCampaign<IncrementalEvaluator>>(
          std::move(evaluator), std::move(base)));
}

/// Size-stratified TWCS: the strata are cut in one pass over a triple-offset
/// column (the view's, or one built for both passes), and the stratum index
/// built in a second that also writes each cluster's stratum.
Result<std::unique_ptr<Campaign>> MakeSizeStratifiedTwcs(
    const KgView& view, Annotator* annotator,
    const EvaluationOptions& options) {
  const uint64_t h = options.num_strata > 0 ? options.num_strata : 4;
  TriplePrefixIndex column(view);
  const SizeStratifier sizes(column.Offsets(), static_cast<int>(h));
  return MakeStratifiedTwcsCampaign(StratumIndex(std::move(column), sizes),
                                    sizes.weights(), annotator, options);
}

using DesignFactory = Result<std::unique_ptr<Campaign>> (*)(
    const KgView& view, Annotator* annotator,
    const EvaluationOptions& options);

struct Design {
  const char* name;
  const char* description;
  DesignFactory make;
};

/// The built-in designs, sorted by name.
constexpr Design kDesigns[] = {
    {"kgeval",
     "KGEval baseline (Ojha & Talukdar 2017); materialized graphs only, no "
     "statistical guarantee",
     MakeKgEval},
    {"rcs", "random cluster sampling, uniform without replacement (Eq 7)",
     MakeRcs},
    {"rs",
     "reservoir incremental evaluation (Sec 6.1, Alg 1); base campaign on "
     "the current graph",
     MakeIncrementalBase<ReservoirIncrementalEvaluator>},
    {"srs", "simple random sampling of triples (Eq 5)", MakeSrs},
    {"ss",
     "stratified incremental evaluation (Sec 6.2, Alg 2); base campaign on "
     "the current graph",
     MakeIncrementalBase<StratifiedIncrementalEvaluator>},
    {"twcs", "two-stage weighted cluster sampling (Eq 9, recommended)",
     MakeTwcs},
    {"twcs+pilot", "TWCS with m selected by an annotated pilot (Eq 12 search)",
     PilotedTwcsCampaign::Make},
    {"twcs+strat",
     "size-stratified TWCS with options.num_strata strata (Eq 13)",
     MakeSizeStratifiedTwcs},
    {"wcs", "weighted cluster sampling, size-proportional (Eq 8)", MakeWcs},
};

const Design* Find(const std::string& name) {
  for (const Design& design : kDesigns) {
    if (name == design.name) return &design;
  }
  return nullptr;
}

}  // namespace

const DesignRegistry& DesignRegistry::Global() {
  static const DesignRegistry registry;
  return registry;
}

Result<std::unique_ptr<Campaign>> DesignRegistry::MakeCampaign(
    const std::string& name, const KgView& view, Annotator* annotator,
    const EvaluationOptions& options) const {
  const Design* design = Find(name);
  if (design == nullptr) return UnknownDesign(name);
  KGACC_RETURN_IF_ERROR(CheckEvaluationOptions(options));
  if (view.TotalTriples() == 0) {
    return Status::InvalidArgument("cannot evaluate an empty graph");
  }
  return design->make(view, annotator, options);
}

Result<EvaluationResult> DesignRegistry::Run(
    const std::string& name, const KgView& view, Annotator* annotator,
    const EvaluationOptions& options) const {
  KGACC_ASSIGN_OR_RETURN(std::unique_ptr<Campaign> campaign,
                         MakeCampaign(name, view, annotator, options));
  return RunCampaign(*campaign, options.control);
}

bool DesignRegistry::Contains(const std::string& name) const {
  return Find(name) != nullptr;
}

Status DesignRegistry::UnknownDesign(const std::string& name) const {
  std::string known;
  for (const Design& design : kDesigns) {
    if (!known.empty()) known += ", ";
    known += design.name;
  }
  return Status::NotFound(StrFormat("unknown design '%s' (known: %s)",
                                    name.c_str(), known.c_str()));
}

std::vector<std::string> DesignRegistry::Names() const {
  std::vector<std::string> names;
  for (const Design& design : kDesigns) names.push_back(design.name);
  return names;
}

std::string DesignRegistry::Description(const std::string& name) const {
  const Design* design = Find(name);
  return design == nullptr ? "" : design->description;
}

}  // namespace kgacc
