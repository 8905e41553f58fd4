#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "cost/cost_model.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one run measured. main.cc writes it out as the raw result file
/// that perfbench/run.py turns into metrics; no statistics are computed here.
struct RunRecord {
  std::vector<double> setup_s;        ///< one entry per set-up repetition.
  std::vector<double> op_ms;          ///< latency of every timed operation,
  std::vector<double> op_end_s;       ///< and when it completed.
  /// Completion time of every operation the throughput counts. Times are
  /// seconds on the script clock, which starts at 0 and excludes set-up.
  std::vector<double> done_s;
  /// Throughput is taken over chunks of whole multiples of this many
  /// operations (a workload's natural cycle, e.g. one pass over the designs).
  uint64_t quantum = 1;
  uint64_t ops = 0;                   ///< operations the throughput counts.
  double script_s = 0.0;              ///< wall time of the timed script.
  std::vector<double> hours;          ///< annotation hours per campaign.
  uint64_t attempted = 0;             ///< operations and checks attempted.
  std::vector<std::string> failures;  ///< one line per failed one.
  std::map<std::string, std::vector<double>> samples;  ///< extra raw samples.
  std::map<std::string, double> values;  ///< extra scalars.

  // Traced run only.
  double untraced_s = 0.0;     ///< driving-thread wall time, untraced pass.
  double traced_s = 0.0;       ///< driving-thread wall time, traced pass.
  std::map<std::string, double> counts;  ///< per-layer counters.

  /// Counts one attempted operation or check; `ok == false` records it as
  /// failed with `what` as the reason.
  void Check(bool ok, const std::string& what);

  /// Records one timed operation that took `ms` and completed `end_s` into
  /// the script.
  void AddOp(double ms, double end_s);
};

/// The exact text of a campaign result (doubles at %.17g, machine time left
/// out), so bit-identity checks compare every field that results carry.
std::string Fingerprint(const kgacc::EvaluationResult& result);

/// Invariants any correct evaluation satisfies, whatever samples it drew:
/// the campaign succeeded, converged implies moe <= target, and its cost is
/// Eq 4 of its own ledger (c1 * entities + c2 * triples).
void CheckResult(const kgacc::EvaluationResult& result,
                 const kgacc::EvaluationOptions& options,
                 const kgacc::CostModel& cost, const std::string& what,
                 RunRecord* record);

/// Number of operations in a fixed script sized for `seconds` of work at
/// `per_second` operations a second (a constant measured on a 4-vCPU VM),
/// rounded up to a multiple of `quantum` and at least `minimum`. The script
/// never looks at a clock, so what a run does depends only on its arguments.
uint64_t ScriptLength(double seconds, double per_second, uint64_t quantum,
                      uint64_t minimum);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

void RunLargeKg(const Args& args, RunRecord* record);
void RunServe(const Args& args, RunRecord* record);

}  // namespace perfbench
