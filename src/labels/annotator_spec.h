#pragma once

#include <cstdint>
#include <memory>

#include "labels/annotator.h"
#include "labels/truth_oracle.h"
#include "util/result.h"

namespace kgacc {

/// How a campaign's annotation side is configured: the knobs kgacc_eval
/// exposes, and what a serve session persists so it can rebuild its
/// annotator on resume.
struct AnnotatorSpec {
  uint64_t annotators = 1;        ///< pool size; 1 = single annotator.
  double noise_rate = 0.0;        ///< per-annotator label flip rate.
  uint64_t seed = 0x5eed;         ///< noise- and latency-stream seed.
  uint64_t annotation_threads = 0;  ///< sharded batch-annotation threads.
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

/// Caps on the sizes an AnnotatorSpec allocates: pool members, worker
/// threads and in-flight annotation slots.
inline constexpr uint64_t kMaxAnnotators = 99;
inline constexpr uint64_t kMaxAnnotationThreads = 256;
inline constexpr uint64_t kMaxConcurrent = 65536;

/// Cap on the simulated mean latency per first-seen triple. A campaign waits
/// each one out, so the cap bounds how long one round (a daemon `step`)
/// can hold its thread; 10 s is far past any annotator a bench simulates.
inline constexpr double kMaxLatencyMs = 10000.0;

/// Every range rule on an AnnotatorSpec, in one place: `annotators` odd (a
/// majority vote cannot tie) and in [1, kMaxAnnotators], `noise_rate` in
/// [0, 1], `c1_seconds`/`c2_seconds` finite and >= 0, `latency_ms` in
/// [0, kMaxLatencyMs], `annotation_threads` <= kMaxAnnotationThreads and
/// `max_concurrent` in [1, kMaxConcurrent].
/// InvalidArgument names the field. MakeAnnotator calls it.
Status CheckAnnotatorSpec(const AnnotatorSpec& spec);

/// Builds the annotator stack `spec` describes over `oracle` (borrowed; must
/// outlive the annotator), or refuses a spec CheckAnnotatorSpec rejects:
///   - the backend: a SimulatedAnnotator when `annotators == 1`, a
///     majority-voting AnnotatorPool otherwise;
///   - a MockLatencyAnnotator over it when `latency_ms > 0` or `async` is
///     set (the latency facade the async bridge draws its latencies from);
///   - an AsyncAnnotator on top when `async` is set.
Result<std::unique_ptr<Annotator>> MakeAnnotator(const AnnotatorSpec& spec,
                                                 const TruthOracle* oracle);

}  // namespace kgacc
