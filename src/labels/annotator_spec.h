#pragma once

#include <cstdint>
#include <memory>

#include "labels/annotator.h"
#include "labels/truth_oracle.h"

namespace kgacc {

/// How a campaign's annotation side is configured: the knobs kgacc_eval
/// exposes, and what a serve session persists so it can rebuild its
/// annotator on resume.
struct AnnotatorSpec {
  uint64_t annotators = 1;        ///< pool size; 1 = single annotator.
  double noise_rate = 0.0;        ///< per-annotator label flip rate.
  uint64_t seed = 0x5eed;         ///< noise- and latency-stream seed.
  int annotation_threads = 0;     ///< sharded batch-annotation threads.
  int annotation_shards = 0;      ///< annotation cache shards (0 = default).
  double c1_seconds = 45.0;       ///< entity identification cost (Eq 4).
  double c2_seconds = 25.0;       ///< relationship validation cost (Eq 4).

  /// Wraps the annotator in the async bridge (labels/async_annotator.h).
  /// Latency never changes labels, ledger or traces — only wall-clock time
  /// — so resuming with a different async configuration would still replay
  /// bit-identically; it is nonetheless persisted so a resumed session
  /// behaves like the original.
  bool async = false;
  double latency_ms = 0.0;        ///< mean simulated latency per triple.
  uint64_t max_concurrent = 8;    ///< bounded in-flight annotation window.
};

/// Builds the annotator stack `spec` describes over `oracle` (borrowed; must
/// outlive the annotator):
///   - the backend: a SimulatedAnnotator when `annotators == 1`, a
///     majority-voting AnnotatorPool otherwise;
///   - a MockLatencyAnnotator over it when `latency_ms > 0` or `async` is
///     set (the latency facade the async bridge draws its latencies from);
///   - an AsyncAnnotator on top when `async` is set.
std::unique_ptr<Annotator> MakeAnnotator(const AnnotatorSpec& spec,
                                         const TruthOracle* oracle);

}  // namespace kgacc
