#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/campaign_control.h"
#include "core/engine.h"
#include "kg/kg_view.h"
#include "labels/annotator.h"
#include "labels/truth_oracle.h"
#include "util/result.h"

namespace perfbench {

int64_t NowNs();

/// One recorded interval. `name` is "<layer>.<what>": the layer is the module
/// under src/ that the span's self time is charged to, or "bench" for the
/// benchmark's own work (response checks, bookkeeping).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a top-level span.
  uint64_t op = 0;      ///< campaign, request or grant index.
  uint32_t thread = 0;
  uint32_t pass = 0;   ///< one of the kPass* values below.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The traced script itself: its spans are what the per-layer shares divide
/// among layers.
constexpr uint32_t kPassScript = 0;
/// The same script driven one layer further down (serve: straight into the
/// engine), to see inside what the script pass can only time whole.
constexpr uint32_t kPassLayerDown = 1;
/// Set-up before the script (graph generation, server start).
constexpr uint32_t kPassSetup = 2;
/// serve only: the request script sent straight into
/// SessionManager::HandleLine, so the difference to the script pass is the
/// TCP transport.
constexpr uint32_t kPassHandleLine = 3;
/// serve only: the same campaigns stepped straight through
/// ServeSession::Step, one round a step; the difference to an engine round
/// is the session's step gate.
constexpr uint32_t kPassSession = 4;

/// In-memory span recorder for the traced run. Each thread appends to its own
/// buffer and nests spans through its own stack of open spans, so recording
/// takes no lock; buffers are collected once, after every thread has joined.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  /// Turns recording off or back on for the calling thread alone (on by
  /// default), so a run can trace a sample of its operations.
  static void SetThreadEnabled(bool enabled);
  static bool Enabled();

  /// Operation id and pass stamped on this thread's subsequent spans.
  static void SetOp(uint64_t op);
  static void SetPass(uint32_t pass);

  static size_t Begin(const char* name);
  static void End(size_t handle);

  /// Records an interval measured elsewhere as a child of this thread's
  /// innermost open span.
  static void Add(const char* name, int64_t start_ns, int64_t end_ns);

  static std::vector<Span> Collect();
};

/// Records one span around a scope while the tracer is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : handle_(Tracer::Enabled() ? Tracer::Begin(name) : kNone) {}
  ~ScopedSpan() {
    if (handle_ != kNone) Tracer::End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t handle_;
};

/// Counters the decorators below bump, one instance per driving thread.
struct LayerCounts {
  uint64_t cluster_size_reads = 0;
  uint64_t oracle_reads = 0;
  uint64_t refs = 0;         ///< triple refs submitted for annotation.
  uint64_t paid_refs = 0;    ///< refs the annotator charged for (not cached).
  uint64_t units = 0;        ///< sampling units drawn.
  uint64_t rounds = 0;       ///< campaign rounds started.
  uint64_t campaigns = 0;

  /// Adds every counter to `out` under its own name.
  void AddTo(std::map<std::string, double>* out) const;
};

// Decorators over the library's public interfaces. Each forwards every call
// unchanged, so a campaign run through them computes exactly what it computes
// without them; they only add spans and counts.

/// kg: counts cluster-size reads. Not timed: a read takes nanoseconds and is
/// called per cluster in O(N) sampler set-up, whose span covers the reads.
class TracedView : public kgacc::KgView {
 public:
  TracedView(const kgacc::KgView& inner, LayerCounts* counts)
      : inner_(inner), counts_(counts) {}
  uint64_t NumClusters() const override { return inner_.NumClusters(); }
  uint64_t ClusterSize(uint64_t cluster) const override {
    ++counts_->cluster_size_reads;
    return inner_.ClusterSize(cluster);
  }
  uint64_t TotalTriples() const override { return inner_.TotalTriples(); }

 private:
  const kgacc::KgView& inner_;
  LayerCounts* counts_;
};

/// labels: counts ground-truth reads (one per triple actually annotated).
class TracedOracle : public kgacc::TruthOracle {
 public:
  TracedOracle(const kgacc::TruthOracle& inner, LayerCounts* counts)
      : inner_(inner), counts_(counts) {}
  bool IsCorrect(const kgacc::TripleRef& ref) const override {
    ++counts_->oracle_reads;
    return inner_.IsCorrect(ref);
  }

 private:
  const kgacc::TruthOracle& inner_;
  LayerCounts* counts_;
};

/// labels: one span per annotation call, plus refs submitted and paid for.
class TracedAnnotator : public kgacc::Annotator {
 public:
  TracedAnnotator(kgacc::Annotator* inner, LayerCounts* counts)
      : inner_(inner), counts_(counts) {}
  bool Annotate(const kgacc::TripleRef& ref) override;
  void AnnotateBatch(std::span<const kgacc::TripleRef> refs,
                     uint8_t* out) override;
  const kgacc::AnnotationLedger& ledger() const override {
    return inner_->ledger();
  }
  const kgacc::CostModel& cost_model() const override {
    return inner_->cost_model();
  }
  double ElapsedSeconds() const override { return inner_->ElapsedSeconds(); }

 private:
  kgacc::Annotator* inner_;
  LayerCounts* counts_;
};

/// sampling: one span per batch drawn, plus units drawn.
class TracedSampler : public kgacc::UnitSampler {
 public:
  TracedSampler(kgacc::UnitSampler* inner, LayerCounts* counts)
      : inner_(inner), counts_(counts) {}
  std::vector<kgacc::SampleUnit> NextBatch(uint64_t n,
                                           kgacc::Rng& rng) override;
  bool Exhaustible() const override { return inner_->Exhaustible(); }
  bool PrefetchSafe() const override { return inner_->PrefetchSafe(); }

 private:
  kgacc::UnitSampler* inner_;
  LayerCounts* counts_;
};

/// estimators: one span per unit added and per estimate read.
class TracedEstimator : public kgacc::UnitEstimator {
 public:
  explicit TracedEstimator(kgacc::UnitEstimator* inner) : inner_(inner) {}
  void AddUnit(const kgacc::SampleUnit& unit, const uint8_t* labels) override;
  kgacc::Estimate Current() const override;
  bool BinomialCounts(uint64_t* successes, uint64_t* trials) const override {
    return inner_->BinomialCounts(successes, trials);
  }

 private:
  kgacc::UnitEstimator* inner_;
};

/// core: counts rounds at the round boundary every campaign loop consults.
/// Always proceeds, so campaigns run exactly as without a control.
class TracedControl : public kgacc::CampaignControl {
 public:
  explicit TracedControl(LayerCounts* counts) : counts_(counts) {}
  Action BeforeRound(uint64_t next_round) override {
    (void)next_round;
    ++counts_->rounds;
    return Action::kProceed;
  }

 private:
  LayerCounts* counts_;
};

/// Runs one campaign of `design` through the decorators. For srs, rcs, wcs
/// and twcs it builds the campaign from the public sampler/estimator classes
/// and EvaluationEngine::Run, so sampler construction gets its own span; the
/// other designs go through DesignRegistry::Run, which builds its samplers
/// internally (their set-up then counts as core self time).
kgacc::Result<kgacc::EvaluationResult> TracedCampaign(
    const std::string& design, const kgacc::KgView& view,
    const kgacc::TruthOracle& oracle, const kgacc::CostModel& cost,
    const kgacc::EvaluationOptions& options, LayerCounts* counts);

/// The same campaign without decorators or spans: what the untraced run
/// times. A fresh SimulatedAnnotator over `oracle`, then DesignRegistry::Run.
kgacc::Result<kgacc::EvaluationResult> PlainCampaign(
    const std::string& design, const kgacc::KgView& view,
    const kgacc::TruthOracle& oracle, const kgacc::CostModel& cost,
    const kgacc::EvaluationOptions& options);

}  // namespace perfbench
