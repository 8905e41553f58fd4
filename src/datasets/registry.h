#pragma once

#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "util/result.h"

namespace kgacc {

/// Table 3-style characteristics of a dataset.
struct DatasetCharacteristics {
  std::string name;
  uint64_t num_entities = 0;
  uint64_t num_triples = 0;
  double average_cluster_size = 0.0;
  double gold_accuracy = 0.0;  ///< realized overall accuracy of the oracle.
};

/// Computes the Table 3 row for a dataset. O(total triples) — it consults
/// the oracle for every triple.
DatasetCharacteristics Characterize(const Dataset& dataset);

/// Builds a dataset by name: "nell", "yago", "movie", "movie-syn",
/// "movie-rem" (accuracy 0.9) or "movie-full" (paper-scale, REM 0.9).
/// Unknown names produce InvalidArgument.
Result<Dataset> MakeDatasetByName(const std::string& name, uint64_t seed);

/// Names accepted by MakeDatasetByName.
std::vector<std::string> KnownDatasetNames();

/// Loads a gold-labeled TSV graph (kg/loader.h; the 0/1 label column is the
/// truth a simulated annotator consults) as a materialized dataset that
/// keeps the file's SymbolTable. InvalidArgument, naming the file, when a
/// line has no label or the file holds no triples.
Result<Dataset> LoadTsvDataset(const std::string& path);

/// Opens a `.kgstore` file as a zero-copy mmap dataset, in O(1) in the graph
/// size. The file must embed gold labels (kgacc_store build writes them
/// whenever the source has full label coverage): campaigns cannot annotate
/// without a truth source.
Result<Dataset> LoadKgstoreDataset(const std::string& path);

}  // namespace kgacc
