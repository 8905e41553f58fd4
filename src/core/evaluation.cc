#include "core/evaluation.h"

#include <cfloat>
#include <tuple>

#include "stats/stratification.h"
#include "util/string_util.h"

namespace kgacc {

namespace {

Status OutOfRange(const char* field, const char* range, double value) {
  return Status::InvalidArgument(StrFormat(
      "option '%s' must be %s, got %.17g", field, range, value));
}

}  // namespace

Status CheckEvaluationOptions(const EvaluationOptions& options) {
  // A NaN fails every comparison, so it is refused too.
  if (!(options.moe_target > 0.0 && options.moe_target <= DBL_MAX)) {
    return OutOfRange("moe_target", "finite and > 0", options.moe_target);
  }
  if (!(options.confidence > 0.0 && options.confidence < 1.0)) {
    return OutOfRange("confidence", "in (0, 1)", options.confidence);
  }
  if (!(options.max_cost_seconds >= 0.0 &&
        options.max_cost_seconds <= DBL_MAX)) {
    return OutOfRange("max_cost_seconds", "finite and >= 0",
                      options.max_cost_seconds);
  }
  for (const auto& [field, min, max, value] :
       {std::tuple{"batch_units", uint64_t{1}, kMaxRoundUnits,
                   options.batch_units},
        std::tuple{"min_units", uint64_t{0}, kMaxRoundUnits, options.min_units},
        std::tuple{"min_stratum_units", uint64_t{0}, kMaxRoundUnits,
                   options.min_stratum_units},
        std::tuple{"pilot_size", uint64_t{0}, kMaxRoundUnits,
                   options.pilot_size},
        std::tuple{"num_strata", uint64_t{0}, uint64_t{kMaxStrata},
                   options.num_strata}}) {
    if (value < min || value > max) {
      return Status::InvalidArgument(StrFormat(
          "option '%s' must be in [%llu, %llu], got %llu", field,
          static_cast<unsigned long long>(min),
          static_cast<unsigned long long>(max),
          static_cast<unsigned long long>(value)));
    }
  }
  return Status::OK();
}

}  // namespace kgacc
