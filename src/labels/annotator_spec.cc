#include "labels/annotator_spec.h"

#include <utility>

#include "labels/annotator_pool.h"
#include "labels/async_annotator.h"

namespace kgacc {

std::unique_ptr<Annotator> MakeAnnotator(const AnnotatorSpec& spec,
                                         const TruthOracle* oracle) {
  const CostModel cost{.c1_seconds = spec.c1_seconds,
                       .c2_seconds = spec.c2_seconds};
  std::unique_ptr<Annotator> backend;
  if (spec.annotators > 1) {
    backend = std::make_unique<AnnotatorPool>(
        oracle, cost,
        AnnotatorPool::Options{.num_annotators = spec.annotators,
                               .noise_rate = spec.noise_rate,
                               .seed = spec.seed,
                               .annotation_threads = spec.annotation_threads});
  } else {
    backend = std::make_unique<SimulatedAnnotator>(
        oracle, cost,
        SimulatedAnnotator::Options{
            .noise_rate = spec.noise_rate,
            .seed = spec.seed,
            .annotation_threads = spec.annotation_threads,
            .annotation_shards = spec.annotation_shards});
  }
  if (!spec.async && !(spec.latency_ms > 0.0)) return backend;
  auto mock = std::make_unique<MockLatencyAnnotator>(
      std::move(backend),
      MockLatencyAnnotator::Options{.latency_seconds = spec.latency_ms / 1e3,
                                    .seed = spec.seed});
  if (!spec.async) return mock;
  return std::make_unique<AsyncAnnotator>(
      std::move(mock),
      AsyncAnnotator::Options{
          .max_concurrent = static_cast<size_t>(spec.max_concurrent)});
}

}  // namespace kgacc
