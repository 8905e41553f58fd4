#include "trace.h"

#include <chrono>
#include <memory>
#include <mutex>

#include "core/design_registry.h"
#include "core/optimal_m.h"
#include "estimators/unit_estimators.h"
#include "sampling/unit_samplers.h"
#include "util/logging.h"

namespace perfbench {
namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t op = 0;
  uint32_t pass = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;  ///< indices of open spans, innermost last.
};

std::atomic<bool> g_enabled{false};
thread_local bool t_enabled = true;
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // outlive their threads.

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<uint32_t>(g_buffers.size());
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

size_t Push(ThreadBuffer& b, const char* name, int64_t start_ns) {
  Span span;
  span.id = (static_cast<uint64_t>(b.thread) << 40) | (b.spans.size() + 1);
  span.parent = b.open.empty() ? 0 : b.spans[b.open.back()].id;
  span.op = b.op;
  span.thread = b.thread;
  span.pass = b.pass;
  span.name = name;
  span.start_ns = start_ns;
  b.spans.push_back(span);
  return b.spans.size() - 1;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::SetEnabled(bool enabled) { g_enabled.store(enabled); }
void Tracer::SetThreadEnabled(bool enabled) { t_enabled = enabled; }
bool Tracer::Enabled() {
  return t_enabled && g_enabled.load(std::memory_order_relaxed);
}
void Tracer::SetOp(uint64_t op) { Local().op = op; }
void Tracer::SetPass(uint32_t pass) { Local().pass = pass; }

size_t Tracer::Begin(const char* name) {
  ThreadBuffer& b = Local();
  const size_t index = Push(b, name, 0);
  b.open.push_back(index);
  b.spans[index].start_ns = NowNs();  // last, so bookkeeping is not timed.
  return index;
}

void Tracer::End(size_t handle) {
  const int64_t end = NowNs();
  ThreadBuffer& b = Local();
  KGACC_CHECK(!b.open.empty() && b.open.back() == handle)
      << "spans must close innermost first";
  b.spans[handle].end_ns = end;
  b.open.pop_back();
}

void Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns) {
  ThreadBuffer& b = Local();
  b.spans[Push(b, name, start_ns)].end_ns = end_ns;
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void LayerCounts::AddTo(std::map<std::string, double>* out) const {
  (*out)["cluster_size_reads"] += static_cast<double>(cluster_size_reads);
  (*out)["oracle_reads"] += static_cast<double>(oracle_reads);
  (*out)["refs"] += static_cast<double>(refs);
  (*out)["paid_refs"] += static_cast<double>(paid_refs);
  (*out)["units"] += static_cast<double>(units);
  (*out)["rounds"] += static_cast<double>(rounds);
  (*out)["campaigns"] += static_cast<double>(campaigns);
}

bool TracedAnnotator::Annotate(const kgacc::TripleRef& ref) {
  ScopedSpan span("labels.annotate");
  const uint64_t before = inner_->ledger().triples_annotated;
  const bool label = inner_->Annotate(ref);
  ++counts_->refs;
  counts_->paid_refs += inner_->ledger().triples_annotated - before;
  return label;
}

void TracedAnnotator::AnnotateBatch(std::span<const kgacc::TripleRef> refs,
                                    uint8_t* out) {
  ScopedSpan span("labels.annotate");
  const uint64_t before = inner_->ledger().triples_annotated;
  inner_->AnnotateBatch(refs, out);
  counts_->refs += refs.size();
  counts_->paid_refs += inner_->ledger().triples_annotated - before;
}

std::vector<kgacc::SampleUnit> TracedSampler::NextBatch(uint64_t n,
                                                        kgacc::Rng& rng) {
  ScopedSpan span("sampling.next_batch");
  std::vector<kgacc::SampleUnit> units = inner_->NextBatch(n, rng);
  counts_->units += units.size();
  return units;
}

void TracedEstimator::AddUnit(const kgacc::SampleUnit& unit,
                              const uint8_t* labels) {
  ScopedSpan span("estimators.add_unit");
  inner_->AddUnit(unit, labels);
}

kgacc::Estimate TracedEstimator::Current() const {
  ScopedSpan span("estimators.current");
  return inner_->Current();
}

kgacc::Result<kgacc::EvaluationResult> TracedCampaign(
    const std::string& design, const kgacc::KgView& view,
    const kgacc::TruthOracle& oracle, const kgacc::CostModel& cost,
    const kgacc::EvaluationOptions& options, LayerCounts* counts) {
  ScopedSpan campaign("core.campaign");
  ++counts->campaigns;
  TracedView traced_view(view, counts);
  TracedOracle traced_oracle(oracle, counts);
  std::unique_ptr<kgacc::SimulatedAnnotator> simulated;
  {
    ScopedSpan span("labels.setup");
    simulated =
        std::make_unique<kgacc::SimulatedAnnotator>(&traced_oracle, cost);
  }
  TracedAnnotator annotator(simulated.get(), counts);
  TracedControl control(counts);
  kgacc::EvaluationOptions traced = options;
  traced.control = &control;

  std::unique_ptr<kgacc::UnitSampler> sampler;
  std::unique_ptr<kgacc::UnitEstimator> estimator;
  const char* label = nullptr;
  {
    ScopedSpan span("sampling.setup");
    if (design == "srs") {
      sampler = std::make_unique<kgacc::SrsUnitSampler>(traced_view);
      label = "SRS";
    } else if (design == "rcs") {
      sampler = std::make_unique<kgacc::RcsUnitSampler>(traced_view);
      label = "RCS";
    } else if (design == "wcs") {
      sampler = std::make_unique<kgacc::WcsUnitSampler>(traced_view);
      label = "WCS";
    } else if (design == "twcs") {
      sampler = std::make_unique<kgacc::TwcsUnitSampler>(
          traced_view, kgacc::ResolveSecondStageSize(options, cost, nullptr));
      label = "TWCS";
    }
  }
  if (label == nullptr) {
    return kgacc::DesignRegistry::Global().Run(design, traced_view, &annotator,
                                               traced);
  }
  if (design == "srs") {
    estimator = std::make_unique<kgacc::SrsUnitEstimator>();
  } else if (design == "rcs") {
    estimator = std::make_unique<kgacc::RcsUnitEstimator>(
        view.NumClusters(), view.TotalTriples());
  } else if (design == "wcs") {
    estimator = std::make_unique<kgacc::WcsUnitEstimator>();
  } else {
    estimator = std::make_unique<kgacc::TwcsUnitEstimator>();
  }
  TracedSampler traced_sampler(sampler.get(), counts);
  TracedEstimator traced_estimator(estimator.get());
  kgacc::EngineConfig config;
  config.design_name = label;
  config.sampler = &traced_sampler;
  config.estimator = &traced_estimator;
  return kgacc::EvaluationEngine(&annotator, traced).Run(config);
}

kgacc::Result<kgacc::EvaluationResult> PlainCampaign(
    const std::string& design, const kgacc::KgView& view,
    const kgacc::TruthOracle& oracle, const kgacc::CostModel& cost,
    const kgacc::EvaluationOptions& options) {
  kgacc::SimulatedAnnotator annotator(&oracle, cost);
  return kgacc::DesignRegistry::Global().Run(design, view, &annotator, options);
}

}  // namespace perfbench
