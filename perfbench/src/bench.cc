#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace perfbench {

void RunRecord::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) failures.push_back(what);
}

void RunRecord::AddOp(double ms, double end_s) {
  op_ms.push_back(ms);
  op_end_s.push_back(end_s);
  done_s.push_back(end_s);
  ++ops;
}

std::string Fingerprint(const kgacc::EvaluationResult& r) {
  return kgacc::StrFormat(
      "%s mean=%.17g var=%.17g units=%llu moe=%.17g conv=%d rounds=%llu "
      "susp=%d ent=%llu tri=%llu cost=%.17g",
      r.design.c_str(), r.estimate.mean, r.estimate.variance_of_mean,
      static_cast<unsigned long long>(r.estimate.num_units), r.moe,
      r.converged ? 1 : 0, static_cast<unsigned long long>(r.rounds),
      r.suspended ? 1 : 0,
      static_cast<unsigned long long>(r.ledger.entities_identified),
      static_cast<unsigned long long>(r.ledger.triples_annotated),
      r.annotation_seconds);
}

void CheckResult(const kgacc::EvaluationResult& result,
                 const kgacc::EvaluationOptions& options,
                 const kgacc::CostModel& cost, const std::string& what,
                 RunRecord* record) {
  record->Check(!result.suspended, what + ": campaign did not run to its stop");
  record->Check(!result.converged || result.moe <= options.moe_target,
                what + ": converged with moe above target");
  const double eq4 =
      cost.SampleCostSeconds(result.ledger.entities_identified,
                             result.ledger.triples_annotated);
  record->Check(std::fabs(result.annotation_seconds - eq4) <=
                    1e-9 * std::max(1.0, eq4),
                what + ": cost differs from Eq 4 of its ledger");
}

uint64_t ScriptLength(double seconds, double per_second, uint64_t quantum,
                      uint64_t minimum) {
  const double wanted = std::ceil(std::max(0.0, seconds) * per_second);
  uint64_t n = std::max<uint64_t>(minimum, static_cast<uint64_t>(wanted));
  return (n + quantum - 1) / quantum * quantum;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
