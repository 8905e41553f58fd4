#include "core/state_io.h"

#include <array>
#include <string>
#include <string_view>

#include "util/string_util.h"

namespace kgacc {

namespace {

constexpr const char* kSsHeader = "kgacc-ss-state v2";
constexpr const char* kRsHeader = "kgacc-rs-state v2";

/// Reads the `<format> <version>` header line. Another version of the same
/// format gets an error that names it.
Status ExpectHeader(std::istream& in, const char* expected) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(
        StrFormat("missing state header (want '%s')", expected));
  }
  const std::string_view header = StripWhitespace(line);
  if (header == expected) return Status::OK();
  const std::string_view want(expected);
  if (header.starts_with(want.substr(0, want.find(' ') + 1))) {
    return Status::InvalidArgument(
        StrFormat("unsupported state version '%s' (want '%s')",
                  std::string(header).c_str(), expected));
  }
  return Status::InvalidArgument(
      StrFormat("bad state header (want '%s')", expected));
}

/// Reads a `keyword <count>` record. A record count comes from an untrusted
/// stream: callers grow their vectors from the records actually parsed and
/// never reserve() by it, so a corrupt count fails on a missing record
/// instead of allocating (or throwing) before any record is read.
Status ReadCount(std::istream& in, const char* keyword, uint64_t* out) {
  std::string word;
  if (!(in >> word) || word != keyword || !(in >> *out)) {
    return Status::InvalidArgument(
        StrFormat("expected '%s <count>' record", keyword));
  }
  return Status::OK();
}

Status ReadDouble(std::istream& in, const char* keyword, double* out) {
  std::string word;
  if (!(in >> word) || word != keyword || !(in >> *out)) {
    return Status::InvalidArgument(
        StrFormat("expected '%s <value>' record", keyword));
  }
  return Status::OK();
}

/// The sampling stream's `rng <w0> <w1> <w2> <w3>` record.
void WriteRngState(const std::array<uint64_t, 4>& words, std::ostream& out) {
  out << "rng " << words[0] << ' ' << words[1] << ' ' << words[2] << ' '
      << words[3] << '\n';
}

Status ReadRngState(std::istream& in, std::array<uint64_t, 4>* words) {
  std::string word;
  if (!(in >> word) || word != "rng" || !(in >> (*words)[0]) ||
      !(in >> (*words)[1]) || !(in >> (*words)[2]) || !(in >> (*words)[3])) {
    return Status::InvalidArgument("expected 'rng <four state words>' record");
  }
  return Status::OK();
}

}  // namespace

Status SaveStratifiedState(const StratifiedIncrementalEvaluator& evaluator,
                           std::ostream& out) {
  const auto snapshot = evaluator.Snapshot();
  if (snapshot.strata.empty()) {
    return Status::FailedPrecondition("evaluator has no state to save");
  }
  out << kSsHeader << '\n';
  WriteRngState(snapshot.rng_state, out);
  out << "strata " << snapshot.strata.size() << '\n';
  for (const auto& stratum : snapshot.strata) {
    out << "stratum " << stratum.first_cluster << ' ' << stratum.count << ' '
        << stratum.triples << ' ' << stratum.stat_count << ' '
        << StrFormat("%.17g %.17g", stratum.stat_mean, stratum.stat_m2)
        << '\n';
  }
  out << "end\n";
  if (!out.good()) return Status::IOError("stream error while saving state");
  return Status::OK();
}

Status RestoreStratifiedState(std::istream& in,
                              StratifiedIncrementalEvaluator* evaluator) {
  KGACC_RETURN_IF_ERROR(ExpectHeader(in, kSsHeader));
  StratifiedIncrementalEvaluator::StratifiedSnapshot snapshot;
  KGACC_RETURN_IF_ERROR(ReadRngState(in, &snapshot.rng_state));
  uint64_t count = 0;
  KGACC_RETURN_IF_ERROR(ReadCount(in, "strata", &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string word;
    StratifiedIncrementalEvaluator::StratumSnapshot stratum;
    if (!(in >> word) || word != "stratum" || !(in >> stratum.first_cluster) ||
        !(in >> stratum.count) || !(in >> stratum.triples) ||
        !(in >> stratum.stat_count) || !(in >> stratum.stat_mean) ||
        !(in >> stratum.stat_m2)) {
      return Status::InvalidArgument(
          StrFormat("malformed stratum record %llu",
                    static_cast<unsigned long long>(i)));
    }
    snapshot.strata.push_back(stratum);
  }
  std::string word;
  if (!(in >> word) || word != "end") {
    return Status::InvalidArgument("missing 'end' marker");
  }
  return evaluator->Restore(snapshot);
}

Status SaveReservoirState(const ReservoirIncrementalEvaluator& evaluator,
                          std::ostream& out) {
  const auto snapshot = evaluator.Snapshot();
  if (snapshot.offered == 0) {
    return Status::FailedPrecondition("evaluator has no state to save");
  }
  out << kRsHeader << '\n';
  WriteRngState(snapshot.rng_state, out);
  out << "capacity " << snapshot.capacity << '\n';
  out << "offered " << snapshot.offered << '\n';
  out << StrFormat("horizon %.17g\n", snapshot.horizon);
  out << "arrivals " << snapshot.arrivals.size() << '\n';
  for (const auto& [cluster, time] : snapshot.arrivals) {
    out << "r " << cluster << ' ' << StrFormat("%.17g", time) << '\n';
  }
  out << "annotated " << snapshot.annotated.size() << '\n';
  for (const auto& [cluster, correct, sampled] : snapshot.annotated) {
    out << "a " << cluster << ' ' << correct << ' ' << sampled << '\n';
  }
  out << "end\n";
  if (!out.good()) return Status::IOError("stream error while saving state");
  return Status::OK();
}

Status RestoreReservoirState(std::istream& in,
                             ReservoirIncrementalEvaluator* evaluator) {
  KGACC_RETURN_IF_ERROR(ExpectHeader(in, kRsHeader));
  ReservoirIncrementalEvaluator::ReservoirSnapshot snapshot;
  KGACC_RETURN_IF_ERROR(ReadRngState(in, &snapshot.rng_state));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "capacity", &snapshot.capacity));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "offered", &snapshot.offered));
  KGACC_RETURN_IF_ERROR(ReadDouble(in, "horizon", &snapshot.horizon));

  uint64_t arrival_count = 0;
  KGACC_RETURN_IF_ERROR(ReadCount(in, "arrivals", &arrival_count));
  std::string word;
  for (uint64_t i = 0; i < arrival_count; ++i) {
    ExponentialRace::Arrival arrival{};
    if (!(in >> word) || word != "r" || !(in >> arrival.cluster) ||
        !(in >> arrival.time)) {
      return Status::InvalidArgument(StrFormat(
          "malformed arrival record %llu", static_cast<unsigned long long>(i)));
    }
    snapshot.arrivals.push_back(arrival);
  }

  uint64_t annotated_count = 0;
  KGACC_RETURN_IF_ERROR(ReadCount(in, "annotated", &annotated_count));
  for (uint64_t i = 0; i < annotated_count; ++i) {
    uint64_t cluster = 0, correct = 0, sampled = 0;
    if (!(in >> word) || word != "a" || !(in >> cluster) || !(in >> correct) ||
        !(in >> sampled)) {
      return Status::InvalidArgument(
          StrFormat("malformed annotation record %llu",
                    static_cast<unsigned long long>(i)));
    }
    snapshot.annotated.emplace_back(cluster, correct, sampled);
  }
  if (!(in >> word) || word != "end") {
    return Status::InvalidArgument("missing 'end' marker");
  }
  return evaluator->Restore(snapshot);
}

}  // namespace kgacc
