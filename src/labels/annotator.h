#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "cost/task.h"
#include "labels/truth_oracle.h"
#include "util/sharded_cache.h"
#include "util/thread_pool.h"

namespace kgacc {

/// Source of correctness labels *with a price*: the one interface through
/// which every evaluator obtains labels. The paper's framework is "generic
/// and independent of the manual annotation process" (Section 4) — anything
/// that can label a triple and account for its effort plugs in here
/// (a simulated annotator, a majority-voting pool, a real crowd bridge).
class Annotator {
 public:
  virtual ~Annotator() = default;

  /// Annotates one triple, charging cost as needed. Returns the label.
  virtual bool Annotate(const TripleRef& ref) = 0;

  /// Annotates a batch, writing 0/1 labels to `out[i]` for `refs[i]`.
  /// Semantically identical to calling Annotate(refs[i]) in order — same
  /// labels, same ledger — but backends may implement it much faster (the
  /// EvaluationEngine annotates one sampling batch per call). The default
  /// simply loops over Annotate.
  virtual void AnnotateBatch(std::span<const TripleRef> refs, uint8_t* out);

  /// True when BeginAnnotateBatch genuinely overlaps annotation latency
  /// with caller computation (labels/async_annotator.h). Callers use this
  /// to choose pipelined round schedules; synchronous backends return
  /// false and callers keep the one-big-AnnotateBatch path.
  virtual bool AsyncCapable() const { return false; }

  /// Issues a batch without waiting for the labels. May be called any
  /// number of times (chunked submission) before one FinishAnnotateBatch;
  /// every `out` buffer must stay valid — and unread — until that Finish
  /// returns. The default degenerates to the synchronous AnnotateBatch, so
  /// Begin/Finish is always safe to call on any annotator.
  virtual void BeginAnnotateBatch(std::span<const TripleRef> refs,
                                  uint8_t* out) {
    AnnotateBatch(refs, out);
  }

  /// Blocks until every label issued via BeginAnnotateBatch since the last
  /// Finish is resolved (and the ledger reflects it). Default no-op.
  virtual void FinishAnnotateBatch() {}

  /// Asks the annotator to make any simulated waits return promptly (a
  /// campaign being stopped or suspended). Must never change labels or
  /// ledger — cancellation skips the waiting, not the work. Default no-op.
  virtual void CancelPending() {}

  /// Effort so far (distinct entities / triples — Eq 4 set semantics).
  virtual const AnnotationLedger& ledger() const = 0;

  /// The cost model used to convert effort to time.
  virtual const CostModel& cost_model() const = 0;

  /// Simulated human seconds spent so far.
  virtual double ElapsedSeconds() const {
    return ledger().Seconds(cost_model());
  }
  double ElapsedHours() const { return ElapsedSeconds() / 3600.0; }

  /// Annotates an evaluation task (triples grouped by subject).
  std::vector<uint8_t> AnnotateTask(const EvaluationTask& task);
};

/// How many of one group's refs AnnotateGroups found correct.
struct GroupLabels {
  uint64_t correct = 0;
  uint64_t size = 0;  ///< refs in the group.
};

/// Annotates `num_groups` groups of refs, group `g` being `refs_of(g)`, and
/// counts each group's correct labels. When the annotator is AsyncCapable,
/// each group goes in flight as soon as it is built (BeginAnnotateBatch), so
/// building later groups overlaps earlier groups' latency, and one
/// FinishAnnotateBatch collects them all; otherwise every group goes into
/// one AnnotateBatch, so the concurrent path sees one crowd-scale batch.
/// Labels are order-independent, so the counts are bit-identical either way.
std::vector<GroupLabels> AnnotateGroups(
    Annotator& annotator, size_t num_groups,
    const std::function<std::vector<TripleRef>(size_t)>& refs_of);

/// Simulated human annotator: resolves labels through a TruthOracle while
/// keeping the books the way the paper's cost model does —
///
///  - entity identification (c1) is charged once per distinct cluster across
///    the whole evaluation session (Eq 4 counts distinct subject ids);
///  - relationship validation (c2) is charged once per distinct triple;
///    re-annotating an already-annotated triple returns the cached label for
///    free (set semantics of G').
///
/// Optional label noise flips each annotation with probability `noise_rate`.
/// The flip is a **deterministic per-triple stream** — a pure hash of
/// (seed, cluster, offset) — not a draw from a sequential generator, so a
/// triple's label depends only on the triple and the seed, never on how many
/// triples were annotated before it (a human task-force likewise records one
/// answer per fact, not per visit).
///
/// That order-independence is the annotator's determinism contract: labels,
/// ledger and cost are pure functions of the *set* of triples annotated so
/// far. It is what makes the concurrent batch path exact — state lives in a
/// ShardedAnnotationCache keyed by cluster, each worker owns a disjoint set
/// of shards (no locks, no serial merge), per-shard effort accumulators are
/// reduced once per batch, and results are bit-identical for every value of
/// `annotation_threads`.
class SimulatedAnnotator : public Annotator {
 public:
  struct Options {
    double noise_rate = 0.0;
    uint64_t seed = 0x5eed;

    /// Worker threads for the sharded batch path; <= 1 disables it. Only
    /// large batches use the pool (small ones are faster sequentially).
    int annotation_threads = 0;

    /// Shard count of the annotation cache (rounded up to a power of two);
    /// 0 selects ShardedAnnotationCache::kDefaultShards. Never affects
    /// results, only how the concurrent batch path partitions work.
    int annotation_shards = 0;
  };

  SimulatedAnnotator(const TruthOracle* oracle, const CostModel& cost_model);
  SimulatedAnnotator(const TruthOracle* oracle, const CostModel& cost_model,
                     Options options);

  bool Annotate(const TripleRef& ref) override;
  void AnnotateBatch(std::span<const TripleRef> refs, uint8_t* out) override;
  const AnnotationLedger& ledger() const override { return ledger_; }
  const CostModel& cost_model() const override { return cost_model_; }

  /// Forgets all identifications, annotations and accumulated cost (a fresh
  /// annotation campaign, e.g. the from-scratch baseline on an evolved KG).
  void Reset();

  /// Distinct triples holding a cached label, counted from the cache's
  /// records (ledger().triples_annotated keeps the same count as it goes).
  uint64_t NumCachedLabels() const { return cache_.NumCachedLabels(); }

  /// Borrows an external worker pool for the parallel batch path instead of
  /// lazily creating one (an AnnotatorPool shares one pool across members).
  /// Pass nullptr to return to the owned pool. The pool must outlive all
  /// AnnotateBatch calls and must have been created with >= 1 threads.
  void UseThreadPool(ThreadPool* pool) { external_pool_ = pool; }

 private:
  /// The one lookup/bookkeeping step, shared by every path: marks `ref` in
  /// `shard` (the ref's own shard) and asks the oracle only for a new
  /// triple. Touches only `shard`, so concurrent calls on distinct shards
  /// are race-free by construction.
  uint8_t AnnotateInShard(ShardedAnnotationCache::Shard& shard,
                          const TripleRef& ref);

  /// The deterministic per-triple noise stream.
  bool NoiseFlip(const TripleRef& ref) const;

  ThreadPool* PoolForBatch();

  /// Pushes the cache's lookup/hit/miss totals into the global metrics
  /// registry as deltas since the last push (no-op while metrics are off).
  void PublishCacheMetrics();

  const TruthOracle* oracle_;
  CostModel cost_model_;
  Options options_;
  uint64_t noise_seed_;
  ShardedAnnotationCache cache_;
  AnnotationLedger ledger_;
  std::vector<uint32_t> shard_ids_;   // batch scratch, reused across batches.
  /// Work-stealing scratch for the parallel batch path (counting sort of
  /// the batch by shard), reused across batches.
  std::vector<size_t> shard_starts_;
  std::vector<size_t> shard_cursors_;
  std::vector<size_t> shard_slots_;
  std::vector<uint32_t> active_shards_;
  std::unique_ptr<ThreadPool> pool_;  // lazily created.
  ThreadPool* external_pool_ = nullptr;
  /// Cache totals already published to the metrics registry (so per-batch
  /// pushes are deltas, not cumulative re-counts).
  uint64_t published_lookups_ = 0;
  uint64_t published_misses_ = 0;
};

}  // namespace kgacc
