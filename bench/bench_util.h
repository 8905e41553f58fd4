#pragma once

// Shared helpers for the paper-experiment bench binaries. Each binary
// reproduces one table or figure of "Efficient Knowledge Graph Accuracy
// Evaluation" (Gao et al., VLDB 2019) and prints the same rows/series as
// aligned text. Trial counts default to a value that keeps every binary
// within tens of seconds; set KGACC_TRIALS to override (the paper uses
// 1000 random runs).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/design_registry.h"
#include "stats/running_stats.h"
#include "util/string_util.h"

namespace kgacc::bench {

/// Number of random trials per configuration (env KGACC_TRIALS overrides).
inline int Trials(int default_trials) {
  if (const char* env = std::getenv("KGACC_TRIALS")) {
    uint64_t parsed = 0;
    if (ParseUint64(env, &parsed) && parsed > 0) {
      return static_cast<int>(parsed);
    }
  }
  return default_trials;
}

/// Base seed for all trials (env KGACC_SEED overrides).
inline uint64_t Seed() {
  if (const char* env = std::getenv("KGACC_SEED")) {
    uint64_t parsed = 0;
    if (ParseUint64(env, &parsed)) return parsed;
  }
  return 20190923;  // VLDB'19 camera-ready-ish date; arbitrary but fixed.
}

/// "1.85±0.60" formatting used throughout the paper's tables.
inline std::string MeanStd(const RunningStats& stats, int decimals = 2) {
  return StrFormat("%.*f±%.*f", decimals, stats.Mean(), decimals,
                   stats.SampleStdDev());
}

/// "91.6%±2.2%" formatting.
inline std::string MeanStdPercent(const RunningStats& stats, int decimals = 1) {
  return StrFormat("%.*f%%±%.*f%%", decimals, stats.Mean() * 100.0, decimals,
                   stats.SampleStdDev() * 100.0);
}

/// Path for a machine-readable bench artifact (BENCH_*.json): written into
/// $KGACC_BENCH_JSON_DIR when set, the working directory otherwise. The
/// fig benches write kgacc-trace-v1 campaign traces, the measurement
/// benches kgacc-bench-v2 envelopes (BenchArtifact); `kgacc_trace_check`
/// validates both.
inline std::string ArtifactPath(const std::string& name) {
  const char* dir = std::getenv("KGACC_BENCH_JSON_DIR");
  const std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  return base + "/" + name;
}

/// Runs one campaign of registry design `design` to completion. A bench's
/// configuration is fixed, so a refusal is a bug: it is reported and the
/// bench exits 1.
inline EvaluationResult RunDesign(const std::string& design,
                                  const KgView& view, Annotator* annotator,
                                  const EvaluationOptions& options) {
  Result<EvaluationResult> run =
      DesignRegistry::Global().Run(design, view, annotator, options);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", design.c_str(),
                 run.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(run).value();
}

/// Section banner.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Horizontal rule sized for typical tables.
inline void Rule() {
  std::printf("%s\n", std::string(94, '-').c_str());
}

}  // namespace kgacc::bench
