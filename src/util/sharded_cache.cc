#include "util/sharded_cache.h"

#include <bit>

#include "util/rng.h"

namespace kgacc {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr uint64_t kWordBits = 64;

}  // namespace

ShardedAnnotationCache::Marked ShardedAnnotationCache::Shard::Mark(
    const TripleRef& ref) {
  ++lookups_;
  Marked marked;
  if (last_ == nullptr || last_cluster_ != ref.cluster) {
    const auto [record, inserted] = records_.TryEmplace(ref.cluster);
    last_ = record;
    last_cluster_ = ref.cluster;
    marked.new_entity = inserted;
    entities_identified_ += inserted ? 1 : 0;
  }
  Record& record = *last_;
  const uint64_t word = ref.offset / kWordBits;
  uint64_t* annotated = &record.annotated;
  if (word > 0) {
    if (record.more.size() < 2 * word) record.more.resize(2 * word, 0);
    annotated = &record.more[2 * (word - 1)];
  }
  const uint64_t bit = uint64_t{1} << (ref.offset % kWordBits);
  marked.new_triple = (*annotated & bit) == 0;
  *annotated |= bit;
  triples_annotated_ += marked.new_triple ? 1 : 0;
  // A record's labels word follows its annotated word, inline and in `more`.
  marked.label_word = word > 0 ? annotated + 1 : &record.labels;
  marked.label_bit = bit;
  return marked;
}

uint64_t ShardedAnnotationCache::Shard::NumCachedLabels() const {
  uint64_t n = 0;
  records_.ForEachValue([&n](const Record& record) {
    n += static_cast<uint64_t>(std::popcount(record.annotated));
    for (size_t w = 0; w < record.more.size(); w += 2) {
      n += static_cast<uint64_t>(std::popcount(record.more[w]));
    }
  });
  return n;
}

ShardedAnnotationCache::ShardedAnnotationCache(size_t num_shards) {
  const size_t n = RoundUpToPowerOfTwo(num_shards == 0 ? 1 : num_shards);
  shards_.resize(n);
  mask_ = n - 1;
}

size_t ShardedAnnotationCache::ShardOf(uint64_t cluster) const {
  // Mix so that dense cluster-id ranges (the common case: ids 0..N-1) spread
  // across shards instead of striping.
  return static_cast<size_t>(Mix64(cluster) & mask_);
}

AnnotationLedger ShardedAnnotationCache::Totals() const {
  AnnotationLedger totals;
  for (const Shard& shard : shards_) {
    totals.entities_identified += shard.entities_identified();
    totals.triples_annotated += shard.triples_annotated();
  }
  return totals;
}

uint64_t ShardedAnnotationCache::NumCachedLabels() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) n += shard.NumCachedLabels();
  return n;
}

uint64_t ShardedAnnotationCache::TotalLookups() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) n += shard.lookups();
  return n;
}

void ShardedAnnotationCache::Clear() {
  for (Shard& shard : shards_) shard = Shard();
}

}  // namespace kgacc
