#pragma once

#include <cstdint>
#include <span>

#include "kg/kg_view.h"
#include "util/logging.h"

namespace kgacc {

/// A KgView over the contiguous cluster range [first, first + count) of
/// another view, re-indexed from 0 — the shape every stratum of incremental
/// evaluation takes (the base graph, then each update batch appended after
/// it). Lookups translate local -> parent cluster ids via `ToParent`. When the
/// parent has a TripleOffsets() column the view hands out its subspan, so
/// building it is O(1); it re-reads the parent's column on every call, which
/// keeps it valid while the parent appends clusters past the range.
class SubsetView : public KgView {
 public:
  SubsetView(const KgView& parent, uint64_t first, uint64_t count)
      : parent_(parent), first_(first), count_(count) {
    KGACC_CHECK(first <= parent.NumClusters() &&
                count <= parent.NumClusters() - first)
        << "cluster range exceeds the parent view";
    const std::span<const uint64_t> offsets = TripleOffsets();
    if (!offsets.empty()) {
      total_triples_ = offsets.back() - offsets.front();
    } else {
      for (uint64_t c = first; c < first + count; ++c) {
        total_triples_ += parent.ClusterSize(c);
      }
    }
  }

  uint64_t NumClusters() const override { return count_; }
  uint64_t ClusterSize(uint64_t cluster) const override {
    return parent_.ClusterSize(ToParent(cluster));
  }
  uint64_t TotalTriples() const override { return total_triples_; }
  std::span<const uint64_t> TripleOffsets() const override {
    const std::span<const uint64_t> parent = parent_.TripleOffsets();
    if (parent.empty()) return {};
    return parent.subspan(first_, count_ + 1);
  }

  /// Maps a local cluster index to the parent's cluster index.
  uint64_t ToParent(uint64_t local) const {
    KGACC_DCHECK(local < count_);
    return first_ + local;
  }

 private:
  const KgView& parent_;
  uint64_t first_;
  uint64_t count_;
  uint64_t total_triples_ = 0;
};

}  // namespace kgacc
