#pragma once

#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "kg/triple.h"
#include "util/flat_map.h"

namespace kgacc {

/// Label cache + cost books of an annotation session, sharded **by cluster
/// id** so the whole lookup/bookkeeping pass of a batch parallelizes with no
/// serial merge:
///
///  - every triple of a cluster routes to the same shard, so a shard's
///    cluster set is exact on its own: distinct-entity counting (the c1 term
///    of Eq 4) never needs cross-shard reconciliation;
///  - each shard carries its own effort accumulators; a batch reduces them
///    once (O(num_shards), not O(batch)) to refresh the session ledger.
///
/// A shard keeps one record per identified cluster, not one entry per
/// triple: two bitmaps over the cluster's offsets, which are annotated and
/// their labels. Creating the record is the entity identification.
///
/// Concurrency contract: the cache itself holds no locks. During a parallel
/// batch each shard must be touched by exactly one worker — shard ownership
/// is a pure function of the cluster id (ShardOf), so workers partition the
/// shard space and skip refs outside their partition. Between batches any
/// thread may read.
class ShardedAnnotationCache {
 public:
  /// Enough shards that typical thread counts (<= 16) divide the work
  /// evenly, few enough that the per-batch ledger reduce stays negligible.
  static constexpr size_t kDefaultShards = 64;

  /// What marking one triple found. `label_word`/`label_bit` address the
  /// triple's label, 0 until SetLabel; the address lasts until the shard's
  /// next Mark.
  struct Marked {
    bool new_entity = false;  ///< first triple of its cluster (c1).
    bool new_triple = false;  ///< first visit to the triple (c2).
    uint64_t* label_word = nullptr;
    uint64_t label_bit = 0;

    bool Label() const { return (*label_word & label_bit) != 0; }
    void SetLabel(bool correct) const {
      if (correct) *label_word |= label_bit;
    }
  };

  class Shard {
   public:
    /// Marks `ref` annotated — the one mark-and-count step of every
    /// annotation path — and counts the lookup, an identification and a
    /// validation as they occur. `ref.cluster` must route to this shard.
    /// Consecutive marks of one cluster resolve its record once.
    Marked Mark(const TripleRef& ref);

    /// Per-shard effort accumulators (the shard's slice of Eq 4's sets).
    /// Only Mark writes them, so under the class's concurrency contract they
    /// need no atomics.
    uint64_t entities_identified() const { return entities_identified_; }
    uint64_t triples_annotated() const { return triples_annotated_; }
    /// Marks routed to this shard (observability only; cache hits =
    /// lookups - triples_annotated).
    uint64_t lookups() const { return lookups_; }

    /// Annotated triples, counted from the records' bitmaps.
    uint64_t NumCachedLabels() const;

   private:
    /// One identified cluster: bit o of word o / 64 stands for offset o.
    /// Offsets below 64 live inline; `more` holds (annotated, labels) word
    /// pairs for words 1, 2, ..., grown only as far as the largest offset.
    struct Record {
      uint64_t annotated = 0;
      uint64_t labels = 0;
      std::vector<uint64_t> more;
    };

    FlatMap64<Record> records_;
    /// The record the previous Mark resolved (valid until records_ grows,
    /// which only a Mark of another cluster can make it do).
    Record* last_ = nullptr;
    uint64_t last_cluster_ = 0;
    uint64_t entities_identified_ = 0;
    uint64_t triples_annotated_ = 0;
    uint64_t lookups_ = 0;
  };

  /// `num_shards` is rounded up to a power of two (>= 1).
  explicit ShardedAnnotationCache(size_t num_shards = kDefaultShards);

  size_t num_shards() const { return shards_.size(); }

  /// The shard every triple of `cluster` routes to. Pure function, so
  /// concurrent workers agree on ownership without communicating.
  size_t ShardOf(uint64_t cluster) const;

  Shard& shard(size_t index) { return shards_[index]; }
  const Shard& shard(size_t index) const { return shards_[index]; }
  Shard& ShardFor(uint64_t cluster) { return shards_[ShardOf(cluster)]; }

  /// Marks `ref` in its shard (Shard::Mark).
  Marked Mark(const TripleRef& ref) { return ShardFor(ref.cluster).Mark(ref); }

  /// Reduces the per-shard accumulators into one ledger — the once-per-batch
  /// merge that replaces per-triple serial bookkeeping.
  AnnotationLedger Totals() const;

  /// Total cached labels across shards (distinct triples annotated).
  uint64_t NumCachedLabels() const;

  /// Total label lookups across shards (observability).
  uint64_t TotalLookups() const;

  /// Forgets all labels, identifications and accumulated effort.
  void Clear();

 private:
  uint64_t mask_;
  std::vector<Shard> shards_;
};

}  // namespace kgacc
