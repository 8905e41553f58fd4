#include "core/design_registry.h"

#include <algorithm>
#include <utility>

#include "core/kgeval/kgeval_baseline.h"
#include "core/optimal_m.h"
#include "core/reservoir_incremental.h"
#include "core/static_evaluator.h"
#include "core/stratified_evaluator.h"
#include "core/stratified_incremental.h"
#include "core/telemetry.h"
#include "kg/knowledge_graph.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgacc {

namespace {

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
    campaign->twcs_ = StaticEvaluator(view, annotator, pinned).TwcsCampaign();
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
std::unique_ptr<Campaign> MakeIncrementalBase(
    const KgView& view, Annotator* annotator,
    const EvaluationOptions& options) {
  auto evaluator = std::make_unique<Method>(&view, annotator, options);
  std::unique_ptr<Campaign> base = evaluator->InitializeCampaign();
  return std::make_unique<OwningCampaign<IncrementalEvaluator>>(
      std::move(evaluator), std::move(base));
}

void RegisterBuiltins(DesignRegistry* registry) {
  auto must = [](const Status& status) { KGACC_CHECK(status.ok()); };
  must(registry->Register(
      "srs", "simple random sampling of triples (Eq 5)",
      [](const KgView& view, Annotator* annotator,
         const EvaluationOptions& options) {
        return StaticEvaluator(view, annotator, options).SrsCampaign();
      }));
  must(registry->Register(
      "rcs", "random cluster sampling, uniform without replacement (Eq 7)",
      [](const KgView& view, Annotator* annotator,
         const EvaluationOptions& options) {
        return StaticEvaluator(view, annotator, options).RcsCampaign();
      }));
  must(registry->Register(
      "wcs", "weighted cluster sampling, size-proportional (Eq 8)",
      [](const KgView& view, Annotator* annotator,
         const EvaluationOptions& options) {
        return StaticEvaluator(view, annotator, options).WcsCampaign();
      }));
  must(registry->Register(
      "twcs", "two-stage weighted cluster sampling (Eq 9, recommended)",
      [](const KgView& view, Annotator* annotator,
         const EvaluationOptions& options) {
        return StaticEvaluator(view, annotator, options).TwcsCampaign();
      }));
  must(registry->Register(
      "twcs+strat",
      "size-stratified TWCS with options.num_strata strata (Eq 13)",
      [](const KgView& view, Annotator* annotator,
         const EvaluationOptions& options)
          -> Result<std::unique_ptr<Campaign>> {
        const uint64_t h = options.num_strata > 0 ? options.num_strata : 4;
        return StratifiedTwcsEvaluator(view, annotator, options)
            .MakeSizeStratifiedCampaign(static_cast<int>(h));
      }));
  must(registry->Register(
      "twcs+pilot",
      "TWCS with m selected by an annotated pilot (Eq 12 search)",
      PilotedTwcsCampaign::Make));
  must(registry->Register(
      "rs",
      "reservoir incremental evaluation (Sec 6.1, Alg 1); base campaign on "
      "the current graph",
      MakeIncrementalBase<ReservoirIncrementalEvaluator>));
  must(registry->Register(
      "ss",
      "stratified incremental evaluation (Sec 6.2, Alg 2); base campaign on "
      "the current graph",
      MakeIncrementalBase<StratifiedIncrementalEvaluator>));
  must(registry->Register(
      "kgeval",
      "KGEval baseline (Ojha & Talukdar 2017); materialized graphs only, no "
      "statistical guarantee",
      MakeKgEval));
}

}  // namespace

DesignRegistry& DesignRegistry::Global() {
  static DesignRegistry* registry = [] {
    auto* r = new DesignRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

Status DesignRegistry::Register(const std::string& name,
                                const std::string& description,
                                CampaignFactory factory) {
  if (name.empty()) return Status::InvalidArgument("empty design name");
  if (factory == nullptr) {
    return Status::InvalidArgument("null campaign factory");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      entries_.emplace(name, Entry{description, std::move(factory)});
  if (!inserted) {
    return Status::FailedPrecondition(
        StrFormat("design '%s' already registered", name.c_str()));
  }
  return Status::OK();
}

Result<std::unique_ptr<Campaign>> DesignRegistry::MakeCampaign(
    const std::string& name, const KgView& view, Annotator* annotator,
    const EvaluationOptions& options) const {
  CampaignFactory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) return UnknownDesignLocked(name);
    factory = it->second.factory;
  }
  KGACC_RETURN_IF_ERROR(CheckEvaluationOptions(options));
  // Build outside the lock: set-up can be long (a pilot annotates) and may
  // itself consult the registry.
  return factory(view, annotator, options);
}

Result<EvaluationResult> DesignRegistry::Run(
    const std::string& name, const KgView& view, Annotator* annotator,
    const EvaluationOptions& options) const {
  KGACC_ASSIGN_OR_RETURN(std::unique_ptr<Campaign> campaign,
                         MakeCampaign(name, view, annotator, options));
  return RunCampaign(*campaign, options.control);
}

bool DesignRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(name) != entries_.end();
}

Status DesignRegistry::UnknownDesignLocked(const std::string& name) const {
  std::string known;
  for (const auto& [key, entry] : entries_) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  return Status::NotFound(StrFormat("unknown design '%s' (known: %s)",
                                    name.c_str(), known.c_str()));
}

Status DesignRegistry::UnknownDesign(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return UnknownDesignLocked(name);
}

std::vector<std::string> DesignRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::string DesignRegistry::Description(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? "" : it->second.description;
}

}  // namespace kgacc
