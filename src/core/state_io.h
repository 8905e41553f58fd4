#pragma once

#include <istream>
#include <ostream>

#include "core/reservoir_incremental.h"
#include "core/stratified_incremental.h"
#include "util/status.h"

namespace kgacc {

/// Persistence of incremental-evaluation state (the RS and SS checkpoints),
/// so a long-running accuracy monitor survives process restarts without
/// re-annotating anything. A suspended serve session is not saved here: it
/// travels as the protocol's `campaign_state` JSON object
/// (serve/protocol.h), a configuration plus a round count to replay.
///
/// What is saved is the *evaluation* state — stratum moments for SS, the
/// reservoir race (its horizon and O(reservoir) arrivals) plus per-cluster
/// sampled accuracies for RS, and for both the sampling stream's four
/// xoshiro words — not the label cache: recorded labels already live inside
/// those aggregates, and the underlying graph is the caller's to re-open. On
/// restore, the evaluator validates the population against the stored state
/// (cluster counts and triple masses must match) and rejects drifted graphs.
/// A restored evaluator continues exactly as the uninterrupted one would:
/// its next update is bit-identical.
///
/// Format: a line-based text header (`kgacc-ss-state v2` / `kgacc-rs-state
/// v2`) followed by one record per line; doubles are round-tripped with
/// %.17g so restored estimates are bit-identical. A v1 file, which lacks
/// the stream state, is rejected with an error naming its version.

/// Writes the SS evaluator's state. The evaluator must be initialized.
Status SaveStratifiedState(const StratifiedIncrementalEvaluator& evaluator,
                           std::ostream& out);

/// Restores state into a freshly constructed (never initialized) evaluator
/// whose population already contains all clusters the state refers to.
Status RestoreStratifiedState(std::istream& in,
                              StratifiedIncrementalEvaluator* evaluator);

/// Writes the RS evaluator's state. The evaluator must be initialized.
Status SaveReservoirState(const ReservoirIncrementalEvaluator& evaluator,
                          std::ostream& out);

/// Restores state into a freshly constructed (never initialized) evaluator.
Status RestoreReservoirState(std::istream& in,
                             ReservoirIncrementalEvaluator* evaluator);

}  // namespace kgacc
