#include "core/state_io.h"

#include <array>
#include <string>
#include <string_view>

#include "util/string_util.h"

namespace kgacc {

namespace {

constexpr const char* kSsHeader = "kgacc-ss-state v2";
constexpr const char* kRsHeader = "kgacc-rs-state v2";
constexpr const char* kSessionHeader = "kgacc-campaign-session v1";

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

namespace {

/// Reads a `keyword <rest-of-line>` record into a string (design and graph
/// names may contain spaces — e.g. a .tsv path).
Status ReadNamed(std::istream& in, const char* keyword, std::string* out) {
  std::string word;
  if (!(in >> word) || word != keyword) {
    return Status::InvalidArgument(
        StrFormat("expected '%s <value>' record", keyword));
  }
  std::getline(in, *out);
  *out = StripWhitespace(*out);
  if (out->empty()) {
    return Status::InvalidArgument(
        StrFormat("empty value for '%s'", keyword));
  }
  return Status::OK();
}

Status ReadInt(std::istream& in, const char* keyword, int* out) {
  std::string word;
  if (!(in >> word) || word != keyword || !(in >> *out)) {
    return Status::InvalidArgument(
        StrFormat("expected '%s <value>' record", keyword));
  }
  return Status::OK();
}

}  // namespace

Status SaveCampaignSession(const CampaignSessionState& state,
                           std::ostream& out) {
  if (state.design.empty() || state.graph.empty()) {
    return Status::FailedPrecondition("session has no design/graph to save");
  }
  const EvaluationOptions& options = state.options;
  out << kSessionHeader << '\n';
  out << "design " << state.design << '\n';
  out << "graph " << state.graph << '\n';
  out << "rounds " << state.rounds_completed << '\n';
  out << StrFormat("moe_target %.17g\n", options.moe_target);
  out << StrFormat("confidence %.17g\n", options.confidence);
  out << "min_units " << options.min_units << '\n';
  out << "batch_units " << options.batch_units << '\n';
  out << "m " << options.m << '\n';
  out << StrFormat("max_cost_seconds %.17g\n", options.max_cost_seconds);
  out << "max_units " << options.max_units << '\n';
  out << "seed " << options.seed << '\n';
  out << "min_stratum_units " << options.min_stratum_units << '\n';
  out << "srs_ci " << (options.srs_ci == CiMethod::kWilson ? "wilson" : "wald")
      << '\n';
  out << "num_strata " << options.num_strata << '\n';
  out << "pilot_size " << options.pilot_size << '\n';
  const AnnotatorSpec& annotator = state.annotator;
  out << "annotators " << annotator.annotators << '\n';
  out << StrFormat("noise_rate %.17g\n", annotator.noise_rate);
  out << "annotator_seed " << annotator.seed << '\n';
  out << "annotation_threads " << annotator.annotation_threads << '\n';
  out << "annotation_shards " << annotator.annotation_shards << '\n';
  out << StrFormat("c1_seconds %.17g\n", annotator.c1_seconds);
  out << StrFormat("c2_seconds %.17g\n", annotator.c2_seconds);
  // Async-annotation records ride as optional trailers (see Restore) so the
  // v1 header still covers blobs saved before they existed.
  out << "async " << (annotator.async ? 1 : 0) << '\n';
  out << StrFormat("latency_ms %.17g\n", annotator.latency_ms);
  out << "max_concurrent " << annotator.max_concurrent << '\n';
  out << "pipeline_rounds " << (options.pipeline_rounds ? 1 : 0) << '\n';
  out << "end\n";
  if (!out.good()) return Status::IOError("stream error while saving state");
  return Status::OK();
}

Result<CampaignSessionState> RestoreCampaignSession(std::istream& in) {
  KGACC_RETURN_IF_ERROR(ExpectHeader(in, kSessionHeader));
  CampaignSessionState state;
  EvaluationOptions& options = state.options;
  KGACC_RETURN_IF_ERROR(ReadNamed(in, "design", &state.design));
  KGACC_RETURN_IF_ERROR(ReadNamed(in, "graph", &state.graph));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "rounds", &state.rounds_completed));
  KGACC_RETURN_IF_ERROR(ReadDouble(in, "moe_target", &options.moe_target));
  KGACC_RETURN_IF_ERROR(ReadDouble(in, "confidence", &options.confidence));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "min_units", &options.min_units));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "batch_units", &options.batch_units));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "m", &options.m));
  KGACC_RETURN_IF_ERROR(
      ReadDouble(in, "max_cost_seconds", &options.max_cost_seconds));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "max_units", &options.max_units));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "seed", &options.seed));
  KGACC_RETURN_IF_ERROR(
      ReadCount(in, "min_stratum_units", &options.min_stratum_units));
  std::string ci;
  KGACC_RETURN_IF_ERROR(ReadNamed(in, "srs_ci", &ci));
  if (ci == "wilson") {
    options.srs_ci = CiMethod::kWilson;
  } else if (ci == "wald") {
    options.srs_ci = CiMethod::kWald;
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown srs_ci '%s' (want wald or wilson)", ci.c_str()));
  }
  KGACC_RETURN_IF_ERROR(ReadCount(in, "num_strata", &options.num_strata));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "pilot_size", &options.pilot_size));
  AnnotatorSpec& annotator = state.annotator;
  KGACC_RETURN_IF_ERROR(ReadCount(in, "annotators", &annotator.annotators));
  KGACC_RETURN_IF_ERROR(ReadDouble(in, "noise_rate", &annotator.noise_rate));
  KGACC_RETURN_IF_ERROR(ReadCount(in, "annotator_seed", &annotator.seed));
  KGACC_RETURN_IF_ERROR(
      ReadInt(in, "annotation_threads", &annotator.annotation_threads));
  KGACC_RETURN_IF_ERROR(
      ReadInt(in, "annotation_shards", &annotator.annotation_shards));
  KGACC_RETURN_IF_ERROR(ReadDouble(in, "c1_seconds", &annotator.c1_seconds));
  KGACC_RETURN_IF_ERROR(ReadDouble(in, "c2_seconds", &annotator.c2_seconds));
  // Optional trailing records (absent from blobs saved before the async
  // bridge existed): peek each keyword, consume what we recognize, and stop
  // at 'end'. Unknown keywords are still hard errors — a truncated or
  // corrupted blob must not pass as an old one.
  std::string word;
  while (in >> word && word != "end") {
    if (word == "async") {
      int value = 0;
      if (!(in >> value) || (value != 0 && value != 1)) {
        return Status::InvalidArgument("bad 'async' record (want 0 or 1)");
      }
      annotator.async = value != 0;
    } else if (word == "latency_ms") {
      if (!(in >> annotator.latency_ms) || annotator.latency_ms < 0.0) {
        return Status::InvalidArgument("bad 'latency_ms' record");
      }
    } else if (word == "max_concurrent") {
      if (!(in >> annotator.max_concurrent) || annotator.max_concurrent == 0) {
        return Status::InvalidArgument(
            "bad 'max_concurrent' record (want >= 1)");
      }
    } else if (word == "pipeline_rounds") {
      int value = 0;
      if (!(in >> value) || (value != 0 && value != 1)) {
        return Status::InvalidArgument(
            "bad 'pipeline_rounds' record (want 0 or 1)");
      }
      options.pipeline_rounds = value != 0;
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown session record '%s'", word.c_str()));
    }
  }
  if (word != "end") {
    return Status::InvalidArgument("missing 'end' marker");
  }
  if (!(options.moe_target > 0.0) || !(options.confidence > 0.0) ||
      !(options.confidence < 1.0)) {
    return Status::InvalidArgument("moe_target/confidence out of range");
  }
  if (options.batch_units == 0) {
    return Status::InvalidArgument("batch_units must be >= 1");
  }
  if (annotator.annotators == 0) {
    return Status::InvalidArgument("annotators must be >= 1");
  }
  if (!(annotator.noise_rate >= 0.0 && annotator.noise_rate <= 1.0)) {
    return Status::InvalidArgument("noise_rate outside [0, 1]");
  }
  if (annotator.annotation_threads < 0 || annotator.annotation_shards < 0) {
    return Status::InvalidArgument("negative annotation threads/shards");
  }
  return state;
}

}  // namespace kgacc
