#include "datasets/registry.h"

#include <utility>

#include "kg/loader.h"
#include "labels/gold_labels.h"
#include "labels/truth_oracle.h"
#include "util/string_util.h"

namespace kgacc {

DatasetCharacteristics Characterize(const Dataset& dataset) {
  DatasetCharacteristics out;
  out.name = dataset.name;
  const KgView& view = dataset.View();
  out.num_entities = view.NumClusters();
  out.num_triples = view.TotalTriples();
  out.average_cluster_size = view.AverageClusterSize();
  out.gold_accuracy = RealizedOverallAccuracy(*dataset.oracle, view);
  return out;
}

Result<Dataset> MakeDatasetByName(const std::string& name, uint64_t seed) {
  if (name == "nell") return MakeNell(seed);
  if (name == "yago") return MakeYago(seed);
  if (name == "movie") return MakeMovie(seed);
  if (name == "movie-syn") return MakeMovieSyn(BmmParams{}, seed);
  if (name == "movie-rem") return MakeMovieRem(0.9, seed);
  if (name == "movie-full") {
    return MakeMovieFull(/*num_triples=*/130591799, /*accuracy=*/0.9, seed);
  }
  return Status::InvalidArgument(
      StrFormat("unknown dataset '%s'", name.c_str()));
}

std::vector<std::string> KnownDatasetNames() {
  return {"nell", "yago", "movie", "movie-syn", "movie-rem", "movie-full"};
}

Result<Dataset> LoadTsvDataset(const std::string& path) {
  auto symbols = std::make_unique<SymbolTable>();
  auto graph = std::make_unique<KnowledgeGraph>();
  std::vector<LabeledTriple> labels;
  KGACC_RETURN_IF_ERROR(LoadTsvFile(path, symbols.get(), graph.get(), &labels));
  if (graph->TotalTriples() == 0) {
    return Status::InvalidArgument(
        StrFormat("'%s' holds no triples", path.c_str()));
  }
  if (labels.size() != graph->TotalTriples()) {
    return Status::InvalidArgument(StrFormat(
        "'%s' needs a 0/1 gold label on every line (%llu labels for %llu "
        "triples)",
        path.c_str(), static_cast<unsigned long long>(labels.size()),
        static_cast<unsigned long long>(graph->TotalTriples())));
  }
  auto gold = std::make_unique<GoldLabelStore>(graph->ClusterSizes());
  for (const LabeledTriple& lt : labels) gold->Set(lt.ref, lt.correct);
  Dataset dataset;
  dataset.name = path;
  dataset.graph = std::move(graph);
  dataset.oracle = std::move(gold);
  dataset.symbols = std::move(symbols);
  return dataset;
}

Result<Dataset> LoadKgstoreDataset(const std::string& path) {
  KGACC_ASSIGN_OR_RETURN(MappedGraph mapped, MappedGraph::Open(path));
  if (!mapped.has_labels()) {
    return Status::FailedPrecondition(StrFormat(
        "'%s' has no embedded gold labels; rebuild it from a labeled source "
        "(kgacc_store build)",
        path.c_str()));
  }
  Dataset dataset;
  dataset.name = path;
  dataset.mapped = std::make_unique<MappedGraph>(std::move(mapped));
  dataset.oracle = std::make_unique<MappedLabelOracle>(dataset.mapped.get());
  return dataset;
}

}  // namespace kgacc
