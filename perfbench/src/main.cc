// perfbench — runs one benchmark workload and writes what it measured as raw
// samples; perfbench/run.py builds this binary, runs it and turns the raw
// file into metrics.
//
//   perfbench --workload large-kg|serve --seed N --seconds S
//             --trace 0|1 --out RAW.json [--spans SPANS.tsv]
//
// Exit code 0 means the run finished; failed checks are listed in the raw
// file (run.py turns them into a non-zero exit).

#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"
#include "trace.h"
#include "util/flags.h"
#include "util/json.h"

namespace perfbench {
namespace {

void WriteNumbers(kgacc::JsonWriter& json, const std::vector<double>& values) {
  json.BeginArray();
  for (const double v : values) json.Number(v);
  json.EndArray();
}

void WriteRaw(const std::string& path, const Args& args,
              const RunRecord& record) {
  kgacc::JsonWriter json;
  json.BeginObject();
  json.Key("workload").String(args.workload);
  json.Key("seed").Uint(args.seed);
  json.Key("trace").Bool(args.trace);
  json.Key("setup_s");
  WriteNumbers(json, record.setup_s);
  json.Key("op_ms");
  WriteNumbers(json, record.op_ms);
  json.Key("op_end_s");
  WriteNumbers(json, record.op_end_s);
  json.Key("done_s");
  WriteNumbers(json, record.done_s);
  json.Key("quantum").Uint(record.quantum);
  json.Key("ops").Uint(record.ops);
  json.Key("script_s").Number(record.script_s);
  json.Key("hours");
  WriteNumbers(json, record.hours);
  json.Key("peak_rss_mb").Number(PeakRssMb());
  json.Key("attempted").Uint(record.attempted);
  json.Key("failures").BeginArray();
  for (const std::string& f : record.failures) json.String(f);
  json.EndArray();
  json.Key("samples").BeginObject();
  for (const auto& [name, values] : record.samples) {
    json.Key(name);
    WriteNumbers(json, values);
  }
  json.EndObject();
  json.Key("values").BeginObject();
  for (const auto& [name, value] : record.values) json.Key(name).Number(value);
  json.EndObject();
  json.Key("untraced_s").Number(record.untraced_s);
  json.Key("traced_s").Number(record.traced_s);
  json.Key("counts").BeginObject();
  for (const auto& [name, value] : record.counts) json.Key(name).Number(value);
  json.EndObject();
  json.EndObject();
  std::ofstream out(path, std::ios::trunc);
  out << json.TakeString() << "\n";
}

/// One span per line: id, parent, op, thread, pass, name, start, end (ns).
void WriteSpans(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : Tracer::Collect()) {
    out << s.id << '\t' << s.parent << '\t' << s.op << '\t' << s.thread << '\t'
        << s.pass << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
}

int Main(int argc, char** argv) {
  kgacc::Result<kgacc::FlagParser> parsed =
      kgacc::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const kgacc::FlagParser& flags = parsed.value();
  const kgacc::Status valid =
      flags.Validate({"workload", "seed", "seconds", "trace", "out", "spans"});
  kgacc::Result<uint64_t> seed = flags.GetUint64("seed", 1);
  kgacc::Result<double> seconds = flags.GetDouble("seconds", 10.0);
  kgacc::Result<uint64_t> trace = flags.GetUint64("trace", 0);
  if (!valid.ok() || !seed.ok() || !seconds.ok() || !trace.ok() ||
      *trace > 1 || !flags.Has("out")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out RAW.json [--spans SPANS.tsv]\n");
    return 2;
  }
  Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = *seed;
  args.seconds = *seconds;
  args.trace = *trace == 1;

  RunRecord record;
  if (args.workload == "large-kg") {
    RunLargeKg(args, &record);
  } else if (args.workload == "serve") {
    RunServe(args, &record);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  WriteRaw(flags.GetString("out", ""), args, record);
  if (args.trace && flags.Has("spans")) {
    WriteSpans(flags.GetString("spans", ""));
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
