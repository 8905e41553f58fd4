#include "labels/annotator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kgacc {

namespace {

struct AnnotatorMetrics {
  obs::Counter* lookups = obs::MetricsRegistry::Global().GetCounter(
      "annotation.cache.lookups");
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("annotation.cache.hits");
  obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("annotation.cache.misses");
  obs::Counter* parallel_batches = obs::MetricsRegistry::Global().GetCounter(
      "annotation.batch.parallel_count");
  obs::Counter* sequential_batches = obs::MetricsRegistry::Global().GetCounter(
      "annotation.batch.sequential_count");
};

AnnotatorMetrics& Metrics() {
  static AnnotatorMetrics metrics;
  return metrics;
}

/// Batches below this size are cheaper to label sequentially than to shard
/// across the pool.
constexpr size_t kParallelBatchThreshold = 1024;

/// Stream salt separating the annotator's noise hash from every other
/// consumer of HashCombine on (cluster, offset) — in particular the
/// synthetic oracles, which hash the same coordinates under the user's seed.
constexpr uint64_t kNoiseStream = 0x6e6f697365ULL;  // "noise"

}  // namespace

std::vector<GroupLabels> AnnotateGroups(
    Annotator& annotator, size_t num_groups,
    const std::function<std::vector<TripleRef>(size_t)>& refs_of) {
  // Per-group label buffers are sized once and never resized, so the
  // out-pointers handed to BeginAnnotateBatch stay valid until the Finish.
  std::vector<std::vector<TripleRef>> refs(num_groups);
  std::vector<std::vector<uint8_t>> labels(num_groups);
  if (annotator.AsyncCapable()) {
    for (size_t g = 0; g < num_groups; ++g) {
      refs[g] = refs_of(g);
      labels[g].assign(refs[g].size(), 0);
      annotator.BeginAnnotateBatch(refs[g], labels[g].data());
    }
    if (num_groups > 0) annotator.FinishAnnotateBatch();
  } else {
    std::vector<TripleRef> all;
    for (size_t g = 0; g < num_groups; ++g) {
      refs[g] = refs_of(g);
      all.insert(all.end(), refs[g].begin(), refs[g].end());
    }
    std::vector<uint8_t> flat(all.size());
    if (num_groups > 0) annotator.AnnotateBatch(all, flat.data());
    auto cursor = flat.begin();
    for (size_t g = 0; g < num_groups; ++g) {
      labels[g].assign(cursor, cursor + static_cast<int64_t>(refs[g].size()));
      cursor += static_cast<int64_t>(refs[g].size());
    }
  }
  std::vector<GroupLabels> counts(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    for (uint8_t label : labels[g]) counts[g].correct += label;
    counts[g].size = labels[g].size();
  }
  return counts;
}

void Annotator::AnnotateBatch(std::span<const TripleRef> refs, uint8_t* out) {
  for (size_t i = 0; i < refs.size(); ++i) {
    out[i] = Annotate(refs[i]) ? 1 : 0;
  }
}

std::vector<uint8_t> Annotator::AnnotateTask(const EvaluationTask& task) {
  std::vector<TripleRef> refs;
  refs.reserve(task.offsets.size());
  for (uint64_t offset : task.offsets) {
    refs.push_back(TripleRef{task.cluster, offset});
  }
  std::vector<uint8_t> labels(refs.size());
  AnnotateBatch(std::span<const TripleRef>(refs), labels.data());
  return labels;
}

SimulatedAnnotator::SimulatedAnnotator(const TruthOracle* oracle,
                                       const CostModel& cost_model)
    : SimulatedAnnotator(oracle, cost_model, Options()) {}

SimulatedAnnotator::SimulatedAnnotator(const TruthOracle* oracle,
                                       const CostModel& cost_model,
                                       Options options)
    : oracle_(oracle),
      cost_model_(cost_model),
      options_(options),
      noise_seed_(Mix64(options.seed ^ kNoiseStream)),
      cache_(options.annotation_shards > 0
                 ? static_cast<size_t>(options.annotation_shards)
                 : ShardedAnnotationCache::kDefaultShards) {
  KGACC_CHECK(oracle_ != nullptr);
  KGACC_CHECK(options_.noise_rate >= 0.0 && options_.noise_rate <= 1.0);
}

bool SimulatedAnnotator::NoiseFlip(const TripleRef& ref) const {
  return ToUnitDouble(HashCombine(noise_seed_, ref.cluster, ref.offset)) <
         options_.noise_rate;
}

uint8_t SimulatedAnnotator::AnnotateInShard(
    ShardedAnnotationCache::Shard& shard, const TripleRef& ref) {
  const ShardedAnnotationCache::Marked marked = shard.Mark(ref);
  if (marked.new_triple) {
    bool label = oracle_->IsCorrect(ref);
    if (options_.noise_rate > 0.0 && NoiseFlip(ref)) label = !label;
    marked.SetLabel(label);
    return label ? 1 : 0;
  }
  return marked.Label() ? 1 : 0;
}

bool SimulatedAnnotator::Annotate(const TripleRef& ref) {
  ShardedAnnotationCache::Shard& shard = cache_.ShardFor(ref.cluster);
  const uint64_t entities_before = shard.entities_identified();
  const uint64_t triples_before = shard.triples_annotated();
  const uint8_t label = AnnotateInShard(shard, ref);
  // Keep the session ledger exact without an O(shards) reduce per triple.
  ledger_.entities_identified += shard.entities_identified() - entities_before;
  ledger_.triples_annotated += shard.triples_annotated() - triples_before;
  return label != 0;
}

ThreadPool* SimulatedAnnotator::PoolForBatch() {
  if (external_pool_ != nullptr) return external_pool_;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.annotation_threads);
  }
  return pool_.get();
}

void SimulatedAnnotator::PublishCacheMetrics() {
  const uint64_t lookups = cache_.TotalLookups();
  const uint64_t misses = cache_.Totals().triples_annotated;
  if (obs::MetricsEnabled()) {
    Metrics().lookups->Add(lookups - published_lookups_);
    Metrics().misses->Add(misses - published_misses_);
    Metrics().hits->Add((lookups - published_lookups_) -
                        (misses - published_misses_));
  }
  // Baselines advance either way, so deltas only cover the enabled window.
  published_lookups_ = lookups;
  published_misses_ = misses;
}

void SimulatedAnnotator::AnnotateBatch(std::span<const TripleRef> refs,
                                       uint8_t* out) {
  const size_t n = refs.size();
  if (n == 0) return;

  if (options_.annotation_threads > 1 && n >= kParallelBatchThreshold) {
    ThreadPool* pool = PoolForBatch();
    const size_t workers = static_cast<size_t>(options_.annotation_threads);

    // Phase 1 (block-partitioned): precompute shard routes so phase 2's
    // ownership filter is a cheap sequential scan of one word per ref.
    shard_ids_.resize(n);
    pool->ParallelFor(static_cast<int>(workers), [&](int w) {
      const size_t begin = n * static_cast<size_t>(w) / workers;
      const size_t end = n * (static_cast<size_t>(w) + 1) / workers;
      for (size_t i = begin; i < end; ++i) {
        shard_ids_[i] = static_cast<uint32_t>(cache_.ShardOf(refs[i].cluster));
      }
    });

    // Phase 2 (work-stealing, shard-granular): counting-sort the batch by
    // shard, then hand each nonempty shard to the pool as one task, largest
    // shard first (LPT). Workers pull shards dynamically off the pool's
    // shared counter, so a skewed cluster-size distribution — one giant
    // shard plus many tiny ones — no longer pins the whole tail on a single
    // statically-assigned worker. Exactness is untouched: every shard (its
    // cluster records and accumulators) is still processed by exactly
    // one worker, lock-free and merge-free, and labels/books stay
    // order-independent. This also replaces the old whole-batch rescan per
    // worker (O(n * workers)) with one O(n + shards) sort.
    const size_t num_shards = cache_.num_shards();
    shard_starts_.assign(num_shards + 1, 0);
    for (size_t i = 0; i < n; ++i) ++shard_starts_[shard_ids_[i] + 1];
    for (size_t s = 0; s < num_shards; ++s) {
      shard_starts_[s + 1] += shard_starts_[s];
    }
    shard_cursors_.assign(shard_starts_.begin(), shard_starts_.end() - 1);
    shard_slots_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      shard_slots_[shard_cursors_[shard_ids_[i]]++] = i;
    }
    active_shards_.clear();
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (shard_starts_[s + 1] > shard_starts_[s]) active_shards_.push_back(s);
    }
    std::sort(active_shards_.begin(), active_shards_.end(),
              [&](uint32_t a, uint32_t b) {
                const size_t size_a = shard_starts_[a + 1] - shard_starts_[a];
                const size_t size_b = shard_starts_[b + 1] - shard_starts_[b];
                return size_a != size_b ? size_a > size_b : a < b;
              });
    pool->ParallelFor(static_cast<int>(active_shards_.size()), [&](int k) {
      const uint32_t s = active_shards_[static_cast<size_t>(k)];
      ShardedAnnotationCache::Shard& shard = cache_.shard(s);
      for (size_t j = shard_starts_[s]; j < shard_starts_[s + 1]; ++j) {
        const size_t i = shard_slots_[j];
        out[i] = AnnotateInShard(shard, refs[i]);
      }
    });

    // Per-shard accumulators reduced once per batch.
    ledger_ = cache_.Totals();
    Metrics().parallel_batches->Add(1);
    PublishCacheMetrics();
    return;
  }

  // Sequential fast path: the shard is routed, and its record resolved, once
  // per run of consecutive refs of one cluster (an engine unit's refs are).
  ShardedAnnotationCache::Shard* shard = nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || refs[i].cluster != refs[i - 1].cluster) {
      shard = &cache_.ShardFor(refs[i].cluster);
    }
    out[i] = AnnotateInShard(*shard, refs[i]);
  }
  ledger_ = cache_.Totals();
  Metrics().sequential_batches->Add(1);
  PublishCacheMetrics();
}

void SimulatedAnnotator::Reset() {
  cache_.Clear();
  ledger_ = AnnotationLedger{};
  published_lookups_ = 0;
  published_misses_ = 0;
}

}  // namespace kgacc
