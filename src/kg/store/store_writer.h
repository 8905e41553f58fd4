#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kg/store/format.h"
#include "kg/symbol_table.h"
#include "kg/triple.h"
#include "kg/triple_view.h"
#include "labels/truth_oracle.h"
#include "util/result.h"
#include "util/status.h"

namespace kgacc {

/// Streaming writer for `kgacc-kgstore-v1` files.
///
/// The caller declares the cluster and triple counts up front (they size the
/// fixed columnar sections), then streams clusters in order:
///
///   KGACC_ASSIGN_OR_RETURN(StoreWriter w,
///                          StoreWriter::Create(path, N, M, {...}));
///   for each cluster: w.BeginCluster(subject);
///                     for each triple: w.AddTriple(predicate, object, label);
///   KGACC_RETURN_IF_ERROR(w.Finish(&symbols));
///
/// Every column is buffered per section and flushed with pwrite at its own
/// file cursor, with FNV checksums accumulated incrementally — memory stays
/// O(buffer) regardless of graph size, which is what lets MaterializeGraph's
/// streaming path generate 100M-triple graphs without ever holding them.
///
/// The file is built under a sibling temp name and renamed over `path` by
/// Finish (after an fsync), so rebuilding a store that another process has
/// mapped never changes the pages under its mapping; a writer destroyed
/// before Finish succeeds removes its temp file and leaves `path` as it was.
class StoreWriter {
 public:
  struct Options {
    /// Reserve and populate the gold-label bitset section (the `correct`
    /// argument of AddTriple is ignored otherwise).
    bool with_labels = false;
  };

  static Result<StoreWriter> Create(const std::string& path,
                                    uint64_t num_clusters,
                                    uint64_t num_triples,
                                    const Options& options);
  static Result<StoreWriter> Create(const std::string& path,
                                    uint64_t num_clusters,
                                    uint64_t num_triples) {
    return Create(path, num_clusters, num_triples, Options{});
  }

  StoreWriter(StoreWriter&& other) noexcept;
  StoreWriter& operator=(StoreWriter&& other) noexcept;
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;
  ~StoreWriter();

  /// Starts the next cluster. Subjects are stored both in the per-cluster
  /// index and replicated into the per-triple subject column by AddTriple,
  /// so the invariant "every triple's subject is its cluster's subject"
  /// holds by construction.
  Status BeginCluster(EntityId subject);

  /// Appends one triple to the current cluster.
  Status AddTriple(PredicateId predicate, ObjectRef object,
                   bool correct = false);

  /// Flushes all sections, appends the symbol table (when given), writes the
  /// checksummed header, fsyncs and closes the temp file and renames it over
  /// the target path. Fails unless exactly the declared number of clusters
  /// and triples were streamed.
  Status Finish(const SymbolTable* symbols = nullptr);

 private:
  // One append-only column: buffered writes at `begin + cursor` with an
  // incrementally maintained FNV-1a digest.
  struct SectionStream {
    uint64_t begin = 0;
    uint64_t cursor = 0;
    uint64_t checksum = store::kFnvOffsetBasis;
    std::vector<char> buffer;
  };

  StoreWriter() = default;
  void MoveFrom(StoreWriter& other) noexcept;
  /// Closes the temp file and unlinks it unless Finish renamed it.
  void Abandon();

  Status Append(store::Section section, const void* data, uint64_t size);
  Status FlushSection(store::Section section);
  Status AppendBit(store::Section section, uint64_t& word, bool bit);
  Status FlushBitWord(store::Section section, uint64_t& word);

  std::string path_;
  std::string temp_path_;  ///< empty once renamed into place.
  int fd_ = -1;
  bool with_labels_ = false;
  bool finished_ = false;
  uint64_t num_clusters_ = 0;
  uint64_t num_triples_ = 0;
  uint64_t clusters_begun_ = 0;
  uint64_t triples_added_ = 0;
  EntityId current_subject_ = kInvalidId;
  uint64_t kind_word_ = 0;   // partial object-kind bitset word.
  uint64_t label_word_ = 0;  // partial label bitset word.
  SectionStream streams_[store::kNumSections];
};

/// Converts any materialized TripleView into a store file in one pass.
/// `symbols` adds the string-table sections; `labels` adds the gold-label
/// bitset (consulted once per triple).
Status WriteGraphStore(const std::string& path, const TripleView& view,
                       const SymbolTable* symbols = nullptr,
                       const TruthOracle* labels = nullptr);

}  // namespace kgacc
