#pragma once

/// \file kgaccuracy.h
/// Umbrella header for the kgaccuracy library — a from-scratch C++20
/// implementation of "Efficient Knowledge Graph Accuracy Evaluation"
/// (Gao, Li, Xu, Sisman, Dong, Yang; VLDB 2019, arXiv:1907.09657).
///
/// Typical use (see examples/quickstart.cpp):
///
///   kgacc::Dataset data = kgacc::MakeNell(/*seed=*/1);
///   kgacc::SimulatedAnnotator annotator(data.oracle.get(), kgacc::CostModel{});
///   kgacc::Result<kgacc::EvaluationResult> r =
///       kgacc::DesignRegistry::Global().Run("twcs", data.View(), &annotator,
///                                           {});
///   // r.status() on a refused configuration, else r->estimate.mean,
///   // r->moe, r->AnnotationHours(), ...
///
/// An evolving KG is monitored by one IncrementalEvaluator, RS or SS (see
/// examples/evolving_kg_monitor.cpp); each step is an EvaluationResult
/// whose cost covers only that step's new annotations:
///
///   kgacc::StratifiedIncrementalEvaluator ss(&population, &annotator, {});
///   kgacc::EvaluationResult base = ss.Initialize();
///   // ...append an update batch of `count` clusters at `first`...
///   kgacc::EvaluationResult step = ss.ApplyUpdate(first, count);

// Utilities.
#include "util/json.h"        // IWYU pragma: export
#include "util/logging.h"     // IWYU pragma: export
#include "util/result.h"      // IWYU pragma: export
#include "util/rng.h"         // IWYU pragma: export
#include "util/status.h"      // IWYU pragma: export
#include "util/string_util.h" // IWYU pragma: export
#include "util/thread_pool.h" // IWYU pragma: export
#include "util/timer.h"       // IWYU pragma: export

// Statistics.
#include "stats/allocation.h"     // IWYU pragma: export
#include "stats/confidence.h"     // IWYU pragma: export
#include "stats/estimate.h"       // IWYU pragma: export
#include "stats/normal.h"         // IWYU pragma: export
#include "stats/running_stats.h"  // IWYU pragma: export
#include "stats/stratification.h" // IWYU pragma: export
#include "stats/variance.h"       // IWYU pragma: export

// Knowledge-graph substrate.
#include "kg/cluster_population.h" // IWYU pragma: export
#include "kg/delta.h"              // IWYU pragma: export
#include "kg/generator.h"          // IWYU pragma: export
#include "kg/kg_view.h"            // IWYU pragma: export
#include "kg/knowledge_graph.h"    // IWYU pragma: export
#include "kg/loader.h"             // IWYU pragma: export
#include "kg/store/mapped_graph.h" // IWYU pragma: export
#include "kg/store/store_writer.h" // IWYU pragma: export
#include "kg/subset_view.h"        // IWYU pragma: export
#include "kg/symbol_table.h"       // IWYU pragma: export
#include "kg/triple.h"             // IWYU pragma: export
#include "kg/triple_view.h"        // IWYU pragma: export

// Labels and annotation.
#include "labels/annotator.h"        // IWYU pragma: export
#include "labels/annotator_pool.h"   // IWYU pragma: export
#include "labels/annotator_spec.h"   // IWYU pragma: export
#include "labels/async_annotator.h"  // IWYU pragma: export
#include "labels/gold_labels.h"      // IWYU pragma: export
#include "labels/synthetic_oracle.h" // IWYU pragma: export
#include "labels/truth_oracle.h"     // IWYU pragma: export

// Annotation cost model.
#include "cost/cost_fitter.h" // IWYU pragma: export
#include "cost/cost_model.h"  // IWYU pragma: export
#include "cost/task.h"        // IWYU pragma: export

// Sampling designs.
#include "sampling/exponential_race.h" // IWYU pragma: export
#include "sampling/srs.h"              // IWYU pragma: export
#include "sampling/stratum_index.h"    // IWYU pragma: export
#include "sampling/unit_samplers.h"    // IWYU pragma: export

// Estimators.
#include "estimators/estimators.h"      // IWYU pragma: export
#include "estimators/unit_estimators.h" // IWYU pragma: export

// Evaluation framework (the paper's core contribution).
#include "core/campaign.h"               // IWYU pragma: export
#include "core/design_registry.h"        // IWYU pragma: export
#include "core/engine.h"                 // IWYU pragma: export
#include "core/evaluation.h"             // IWYU pragma: export
#include "core/grouped_evaluator.h"      // IWYU pragma: export
#include "core/incremental.h"            // IWYU pragma: export
#include "core/kgeval/coupling_graph.h"  // IWYU pragma: export
#include "core/kgeval/kgeval_baseline.h" // IWYU pragma: export
#include "core/optimal_m.h"              // IWYU pragma: export
#include "core/reservoir_incremental.h"  // IWYU pragma: export
#include "core/snapshot_baseline.h"      // IWYU pragma: export
#include "core/state_io.h"               // IWYU pragma: export
#include "core/stratified_source.h"      // IWYU pragma: export
#include "core/stratified_incremental.h" // IWYU pragma: export
#include "core/telemetry.h"              // IWYU pragma: export

// Benchmark datasets (paper Table 3 reconstructions).
#include "datasets/datasets.h" // IWYU pragma: export
#include "datasets/registry.h" // IWYU pragma: export
