#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "kg/store/format.h"
#include "kg/triple.h"
#include "kg/triple_view.h"
#include "labels/truth_oracle.h"
#include "util/result.h"
#include "util/status.h"

namespace kgacc {

/// Zero-copy TripleView over a memory-mapped `kgacc-kgstore-v1` file.
///
/// Open() is O(1) in the triple count: it mmaps the file and validates only
/// the header (magic, version, header checksum, section bounds) plus the two
/// end-point cluster offsets, so opening a 100M-triple store costs the same
/// as a 10K-triple one — pages fault in lazily as samplers touch them. Full
/// payload validation (per-section checksums, offset monotonicity, id
/// bounds) is the explicit O(bytes) Verify() pass, also reachable as
/// `OpenOptions{.verify_checksums = true}`.
///
/// Every lookup reads the columns in place; nothing is decoded or copied at
/// open time, which is what makes daemon restart over large graphs
/// near-instant.
class MappedGraph final : public TripleView {
 public:
  struct OpenOptions {
    /// Run the full Verify() pass before returning. Turns open into
    /// O(bytes); use for untrusted files, not the serving hot path.
    bool verify_checksums = false;
  };

  static Result<MappedGraph> Open(const std::string& path,
                                  const OpenOptions& options);
  static Result<MappedGraph> Open(const std::string& path) {
    return Open(path, OpenOptions{});
  }

  MappedGraph(MappedGraph&& other) noexcept;
  MappedGraph& operator=(MappedGraph&& other) noexcept;
  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;
  ~MappedGraph() override;

  // KgView.
  uint64_t NumClusters() const override { return header_.num_clusters; }
  uint64_t ClusterSize(uint64_t cluster) const override {
    return cluster_offsets_[cluster + 1] - cluster_offsets_[cluster];
  }
  uint64_t TotalTriples() const override { return header_.num_triples; }
  /// The mapped cluster_offsets section itself.
  std::span<const uint64_t> TripleOffsets() const override {
    if (cluster_offsets_ == nullptr) return {};
    return {cluster_offsets_, header_.num_clusters + 1};
  }

  // TripleView. TripleAt assembles the 12-byte Triple from the s/p/o
  // columns and the object-kind bitset at global index off[c] + offset.
  Triple TripleAt(const TripleRef& ref) const override {
    const uint64_t i = cluster_offsets_[ref.cluster] + ref.offset;
    Triple t;
    t.subject = subjects_[i];
    t.predicate = predicates_[i];
    t.object.id = objects_[i];
    t.object.kind = TestBit(object_kinds_, i) ? ObjectKind::kLiteral
                                              : ObjectKind::kEntity;
    return t;
  }
  EntityId ClusterSubject(uint64_t cluster) const override {
    return cluster_subjects_[cluster];
  }

  /// Whether the file carries a gold-label bitset (flags & kHasLabels).
  bool has_labels() const { return (header_.flags & store::kHasLabels) != 0; }

  /// Ground-truth correctness of the triple at `ref`. Requires has_labels().
  bool LabelAt(const TripleRef& ref) const {
    return TestBit(labels_, cluster_offsets_[ref.cluster] + ref.offset);
  }

  /// Whether the file carries a symbol string table (flags & kHasSymbols).
  bool has_symbols() const {
    return (header_.flags & store::kHasSymbols) != 0;
  }
  uint64_t NumSymbols() const { return header_.num_symbols; }

  /// Name of interned symbol `id` (< NumSymbols()). Requires has_symbols().
  std::string_view SymbolName(uint32_t id) const {
    const uint64_t begin = symbol_offsets_[id];
    return {symbol_blob_ + begin, symbol_offsets_[id + 1] - begin};
  }

  /// Full O(bytes) validation: per-section FNV checksums, cluster-offset
  /// monotonicity, and object-kind/label bitset tail padding.
  Status Verify() const;

  const std::string& path() const { return path_; }
  uint64_t FileBytes() const { return mapped_bytes_; }
  const store::Header& header() const { return header_; }

 private:
  MappedGraph() = default;

  static bool TestBit(const uint64_t* words, uint64_t i) {
    return (words[i / 64] >> (i % 64)) & 1;
  }
  const void* SectionPtr(store::Section section) const;
  void BindSections();
  void MoveFrom(MappedGraph& other) noexcept;
  void Unmap();

  std::string path_;
  int fd_ = -1;
  const void* mapped_ = nullptr;  // nullptr when moved-from / default.
  uint64_t mapped_bytes_ = 0;

  store::Header header_;
  const uint64_t* cluster_offsets_ = nullptr;
  const uint32_t* cluster_subjects_ = nullptr;
  const uint32_t* subjects_ = nullptr;
  const uint32_t* predicates_ = nullptr;
  const uint32_t* objects_ = nullptr;
  const uint64_t* object_kinds_ = nullptr;
  const uint64_t* labels_ = nullptr;         // only when has_labels().
  const uint64_t* symbol_offsets_ = nullptr; // only when has_symbols().
  const char* symbol_blob_ = nullptr;        // only when has_symbols().
};

/// TruthOracle serving the store's embedded gold-label bitset. Holds a
/// non-owning pointer: the MappedGraph must outlive the oracle (Dataset
/// declares the graph before the oracle, so destruction order is safe).
class MappedLabelOracle final : public TruthOracle {
 public:
  explicit MappedLabelOracle(const MappedGraph* graph) : graph_(graph) {}

  bool IsCorrect(const TripleRef& ref) const override {
    return graph_->LabelAt(ref);
  }

 private:
  const MappedGraph* graph_;
};

}  // namespace kgacc
