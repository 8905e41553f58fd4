// kgacc_store — build, inspect and verify kgacc-kgstore-v1 columnar graph
// store files (the zero-copy mmap substrate behind kgacc_eval --graph-store
// and the serving daemon's .kgstore graphs).
//
//   kgacc_store build --input graph.tsv --out graph.kgstore
//   kgacc_store build --dataset nell --seed 42 --out nell.kgstore
//   kgacc_store build --synthetic-triples 10000000 --out big.kgstore
//   kgacc_store info  graph.kgstore
//   kgacc_store verify graph.kgstore

#include <cstdio>
#include <memory>
#include <string>

#include "kgaccuracy.h"
#include "util/flags.h"

namespace kgacc {
namespace {

constexpr const char* kUsage = R"(kgacc_store — columnar mmap graph store tool

Commands:
  build     write a .kgstore file from one of three sources:
              --input FILE.tsv        gold-labeled TSV graph (symbols kept;
                                      labels embedded when every line has one)
              --dataset NAME          built-in materialized dataset
                                      (nell/yago; labels frozen from the
                                      dataset oracle; --seed S applies)
              --synthetic-triples N   MOVIE-FULL profile streamed directly to
                                      disk at N triples — never materialized,
                                      memory stays flat at any size
                                      (--accuracy A [0.9], --seed S [42])
            plus --out FILE.kgstore (required)
  info      print the header of a store file (counts, sections, flags)
  verify    O(1) open, then full checksum + structural validation

The format lays triples out as s/p/o id columns with an object-kind bitset,
a cluster offset index, optional gold-label bitset and symbol table — all
64-byte aligned so MappedGraph serves lookups zero-copy straight from the
page cache. Open cost is independent of triple count.
)";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int RunBuild(const FlagParser& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: build requires --out FILE.kgstore\n");
    return 1;
  }
  const Result<uint64_t> seed = flags.GetUint64("seed", 42);
  if (!seed.ok()) return Fail(seed.status());

  if (flags.Has("synthetic-triples")) {
    const Result<uint64_t> triples = flags.GetUint64("synthetic-triples", 0);
    if (!triples.ok()) return Fail(triples.status());
    if (*triples == 0) {
      std::fprintf(stderr, "error: --synthetic-triples must be >= 1\n");
      return 1;
    }
    const Result<double> accuracy = flags.GetDouble("accuracy", 0.9);
    if (!accuracy.ok()) return Fail(accuracy.status());
    const Status built = BuildMovieFullStore(out, *triples, *accuracy, *seed);
    if (!built.ok()) return Fail(built);
  } else if (flags.Has("input")) {
    const std::string input = flags.GetString("input", "");
    SymbolTable symbols;
    KnowledgeGraph graph;
    std::vector<LabeledTriple> labels;
    const Status load = LoadTsvFile(input, &symbols, &graph, &labels);
    if (!load.ok()) return Fail(load);
    // A store without triples is a file no campaign can run on.
    if (graph.TotalTriples() == 0) {
      return Fail(Status::InvalidArgument(
          StrFormat("'%s' holds no triples", input.c_str())));
    }
    // Labels are embedded only with full coverage: a store whose label
    // bitset silently defaulted missing lines to "wrong" would corrupt
    // every estimate downstream.
    std::unique_ptr<GoldLabelStore> gold;
    if (!labels.empty() && labels.size() == graph.TotalTriples()) {
      gold = std::make_unique<GoldLabelStore>(graph.ClusterSizes());
      for (const LabeledTriple& lt : labels) gold->Set(lt.ref, lt.correct);
    } else if (!labels.empty()) {
      std::fprintf(stderr,
                   "warning: %llu of %llu lines labeled — writing store "
                   "WITHOUT labels (label every line to embed them)\n",
                   static_cast<unsigned long long>(labels.size()),
                   static_cast<unsigned long long>(graph.TotalTriples()));
    }
    const Status written = WriteGraphStore(out, graph, &symbols, gold.get());
    if (!written.ok()) return Fail(written);
  } else if (flags.Has("dataset")) {
    Result<Dataset> made =
        MakeDatasetByName(flags.GetString("dataset", ""), *seed);
    if (!made.ok()) return Fail(made.status());
    const Dataset dataset = std::move(made).value();
    const TripleView* triples = dataset.Triples();
    if (triples == nullptr) {
      std::fprintf(stderr,
                   "error: dataset '%s' is a size-only population with no "
                   "triples to store; use --synthetic-triples for the "
                   "MOVIE-FULL profile\n",
                   dataset.name.c_str());
      return 1;
    }
    const Status written =
        WriteGraphStore(out, *triples, /*symbols=*/nullptr,
                        dataset.oracle.get());
    if (!written.ok()) return Fail(written);
  } else {
    std::fprintf(stderr,
                 "error: build requires --input, --dataset or "
                 "--synthetic-triples (see --help)\n");
    return 1;
  }

  Result<MappedGraph> opened = MappedGraph::Open(out);
  if (!opened.ok()) return Fail(opened.status());
  std::printf("built %s: %llu clusters, %llu triples, %llu bytes%s%s\n",
              out.c_str(),
              static_cast<unsigned long long>(opened->NumClusters()),
              static_cast<unsigned long long>(opened->TotalTriples()),
              static_cast<unsigned long long>(opened->FileBytes()),
              opened->has_labels() ? ", labels" : "",
              opened->has_symbols() ? ", symbols" : "");
  return 0;
}

int RunInfo(const std::string& path) {
  Result<MappedGraph> opened = MappedGraph::Open(path);
  if (!opened.ok()) return Fail(opened.status());
  const store::Header& header = opened->header();
  std::printf("%s: kgacc-kgstore-v%u\n", path.c_str(), header.version);
  std::printf("  clusters: %llu\n",
              static_cast<unsigned long long>(header.num_clusters));
  std::printf("  triples:  %llu (avg cluster %.2f)\n",
              static_cast<unsigned long long>(header.num_triples),
              opened->AverageClusterSize());
  std::printf("  symbols:  %llu\n",
              static_cast<unsigned long long>(header.num_symbols));
  std::printf("  labels:   %s\n", opened->has_labels() ? "yes" : "no");
  std::printf("  file:     %llu bytes\n",
              static_cast<unsigned long long>(opened->FileBytes()));
  static constexpr const char* kSectionNames[store::kNumSections] = {
      "cluster_offsets", "cluster_subjects", "subjects",
      "predicates",      "objects",          "object_kinds",
      "labels",          "symbol_offsets",   "symbol_blob"};
  for (uint32_t s = 0; s < store::kNumSections; ++s) {
    const store::SectionDesc& d = header.sections[s];
    if (d.size_bytes == 0) continue;
    std::printf("  section %-16s offset %10llu  %12llu bytes  fnv1a "
                "%016llx\n",
                kSectionNames[s], static_cast<unsigned long long>(d.offset),
                static_cast<unsigned long long>(d.size_bytes),
                static_cast<unsigned long long>(d.checksum));
  }
  return 0;
}

int RunVerify(const std::string& path) {
  Result<MappedGraph> opened = MappedGraph::Open(path);
  if (!opened.ok()) return Fail(opened.status());
  const Status verified = opened->Verify();
  if (!verified.ok()) return Fail(verified);
  std::printf("%s: OK (%llu clusters, %llu triples, all checksums match)\n",
              path.c_str(),
              static_cast<unsigned long long>(opened->NumClusters()),
              static_cast<unsigned long long>(opened->TotalTriples()));
  return 0;
}

int Run(const FlagParser& flags) {
  const Status valid = flags.Validate(
      {"out", "input", "dataset", "synthetic-triples", "accuracy", "seed",
       "help"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s (see --help)\n", valid.message().c_str());
    return 1;
  }
  if (flags.GetBool("help", false) || flags.positional().empty()) {
    std::printf("%s", kUsage);
    return flags.GetBool("help", false) ? 0 : 1;
  }
  const std::string& command = flags.positional()[0];
  if (command == "build") {
    if (flags.positional().size() != 1) {
      std::fprintf(stderr, "error: build takes no positional arguments\n");
      return 1;
    }
    return RunBuild(flags);
  }
  if (command == "info" || command == "verify") {
    if (flags.positional().size() != 2) {
      std::fprintf(stderr, "error: %s requires exactly one FILE argument\n",
                   command.c_str());
      return 1;
    }
    return command == "info" ? RunInfo(flags.positional()[1])
                             : RunVerify(flags.positional()[1]);
  }
  std::fprintf(stderr, "error: unknown command '%s' (see --help)\n",
               command.c_str());
  return 1;
}

}  // namespace
}  // namespace kgacc

int main(int argc, char** argv) {
  kgacc::Result<kgacc::FlagParser> parsed =
      kgacc::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  return kgacc::Run(*parsed);
}
