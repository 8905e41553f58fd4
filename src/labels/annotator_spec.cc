#include "labels/annotator_spec.h"

#include <cfloat>
#include <tuple>
#include <utility>

#include "labels/annotator_pool.h"
#include "labels/async_annotator.h"
#include "util/string_util.h"

namespace kgacc {

Status CheckAnnotatorSpec(const AnnotatorSpec& spec) {
  for (const auto& [field, min, max, value] :
       {std::tuple{"annotators", uint64_t{1}, kMaxAnnotators, spec.annotators},
        std::tuple{"annotation_threads", uint64_t{0}, kMaxAnnotationThreads,
                   spec.annotation_threads},
        std::tuple{"max_concurrent", uint64_t{1}, kMaxConcurrent,
                   spec.max_concurrent}}) {
    if (value < min || value > max) {
      return Status::InvalidArgument(StrFormat(
          "annotator '%s' must be in [%llu, %llu], got %llu", field,
          static_cast<unsigned long long>(min),
          static_cast<unsigned long long>(max),
          static_cast<unsigned long long>(value)));
    }
  }
  if (spec.annotators % 2 == 0) {
    return Status::InvalidArgument(StrFormat(
        "annotator 'annotators' must be odd (a majority vote cannot tie), "
        "got %llu",
        static_cast<unsigned long long>(spec.annotators)));
  }
  // A NaN fails both comparisons; DBL_MAX as the bound means "finite".
  for (const auto& [field, value, max, range] :
       {std::tuple{"noise_rate", spec.noise_rate, 1.0, "in [0, 1]"},
        std::tuple{"c1_seconds", spec.c1_seconds, DBL_MAX, "finite and >= 0"},
        std::tuple{"c2_seconds", spec.c2_seconds, DBL_MAX, "finite and >= 0"},
        std::tuple{"latency_ms", spec.latency_ms, kMaxLatencyMs,
                   "in [0, 10000]"}}) {
    if (!(value >= 0.0 && value <= max)) {
      return Status::InvalidArgument(StrFormat(
          "annotator '%s' must be %s, got %.17g", field, range, value));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Annotator>> MakeAnnotator(const AnnotatorSpec& spec,
                                                 const TruthOracle* oracle) {
  KGACC_RETURN_IF_ERROR(CheckAnnotatorSpec(spec));
  const CostModel cost{.c1_seconds = spec.c1_seconds,
                       .c2_seconds = spec.c2_seconds};
  const int threads = static_cast<int>(spec.annotation_threads);
  std::unique_ptr<Annotator> backend;
  if (spec.annotators > 1) {
    backend = std::make_unique<AnnotatorPool>(
        oracle, cost,
        AnnotatorPool::Options{.num_annotators = spec.annotators,
                               .noise_rate = spec.noise_rate,
                               .seed = spec.seed,
                               .annotation_threads = threads});
  } else {
    backend = std::make_unique<SimulatedAnnotator>(
        oracle, cost,
        SimulatedAnnotator::Options{.noise_rate = spec.noise_rate,
                                    .seed = spec.seed,
                                    .annotation_threads = threads});
  }
  if (!spec.async && !(spec.latency_ms > 0.0)) return backend;
  auto mock = std::make_unique<MockLatencyAnnotator>(
      std::move(backend),
      MockLatencyAnnotator::Options{.latency_seconds = spec.latency_ms / 1e3,
                                    .seed = spec.seed});
  if (!spec.async) return std::unique_ptr<Annotator>(std::move(mock));
  return std::unique_ptr<Annotator>(std::make_unique<AsyncAnnotator>(
      std::move(mock),
      AsyncAnnotator::Options{
          .max_concurrent = static_cast<size_t>(spec.max_concurrent)}));
}

}  // namespace kgacc
