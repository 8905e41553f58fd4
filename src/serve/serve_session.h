#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/telemetry.h"
#include "datasets/datasets.h"
#include "labels/annotator.h"
#include "serve/protocol.h"
#include "util/result.h"

namespace kgacc {
class AnnotationObserver;
}  // namespace kgacc

namespace kgacc::serve {

/// TelemetrySink recording a session's campaign trace. Thread-safe: the
/// stepping thread writes while other request handlers read.
class SessionTraceSink : public TelemetrySink {
 public:
  void BeginCampaign(const std::string& design,
                     const std::string& label) override;
  void OnRound(const CampaignRound& round) override;
  void EndCampaign(bool converged) override;

  /// The round count and the latest round (meaningful when rounds > 0).
  struct Progress {
    uint64_t rounds = 0;
    CampaignRound last;
  };

  /// One locked O(1) read, whatever the trace length.
  Progress GetProgress() const;

  /// Design, label and converged flag, with only the rounds whose 1-based
  /// index is > `from` — one locked read that copies just those rounds.
  CampaignTrace TraceAfter(uint64_t from) const;

 private:
  mutable std::mutex mutex_;
  CampaignTrace trace_;
};

/// One campaign session of the serve daemon: a registry design's Campaign,
/// stepped round by round on the thread that asks for the rounds (a request
/// handler, or the scheduler's GrantNext), suspendable into a
/// CampaignSessionState and resumable by deterministic replay. An ended
/// session keeps only its result and trace.
///
/// Threading: Step/Suspend/Stop serialize on an op mutex (one client drives
/// a session at a time; concurrent drivers queue). Suspend and Stop first
/// raise an interrupt that Step checks between rounds and cancel the
/// annotator's pending waits, so they return within one round even while
/// another thread runs Step(0). Info/Trace reads are lock-protected and
/// safe at any time from any thread.
class ServeSession {
 public:
  enum class State { kRunning, kSuspended, kCompleted, kStopped };
  static const char* StateName(State state);

  struct Config {
    std::string id;
    std::string design;
    std::string graph;
    std::shared_ptr<const Dataset> dataset;
    EvaluationOptions options;  ///< telemetry/control must be null; the
                                ///< session wires its own telemetry.
    AnnotatorSpec annotator;
    uint64_t replay_rounds = 0;  ///< > 0 resumes a suspended campaign.
    /// Optional fleet-accounting hook (borrowed; must outlive the session):
    /// when set, the session's annotator is wrapped in an ObservedAnnotator
    /// so every annotated ref is reported. Observation is inert — results
    /// stay bit-identical with or without it.
    AnnotationObserver* observer = nullptr;
  };

  struct Info {
    State state = State::kRunning;
    uint64_t rounds = 0;           ///< rounds recorded in the trace.
    bool has_result = false;       ///< result below is meaningful.
    EvaluationResult result;       ///< terminal or suspension-point result.
    Status error = Status::OK();   ///< design failure (e.g. kgeval on a
                                   ///< sizes-only population), if any.
  };

  /// Builds the annotator and the campaign, then replays its first
  /// `replay_rounds` rounds before returning. A configuration that
  /// CheckAnnotatorSpec or CheckEvaluationOptions refuses, or a design that
  /// cannot run, leaves the session stopped with Info::error set.
  explicit ServeSession(Config config);

  /// Advances up to `rounds` more rounds (0 = run to the design's own
  /// stopping decision) on the calling thread. Error on suspended/stopped
  /// sessions; benign no-op when already completed.
  Status Step(uint64_t rounds);

  /// Ends the campaign at the next round boundary and returns what resumes
  /// it: this session's configuration and its completed rounds. Errors
  /// once completed/stopped (nothing left to suspend).
  Result<CampaignSessionState> Suspend();

  /// Abandons the campaign at the next round boundary and marks the session
  /// stopped. The recorded trace stays readable.
  Status Stop();

  Info GetInfo() const;
  SessionTraceSink::Progress GetProgress() const {
    return sink_.GetProgress();
  }
  CampaignTrace TraceAfter(uint64_t from) const {
    return sink_.TraceAfter(from);
  }

  const std::string& id() const { return config_.id; }
  const std::string& design() const { return config_.design; }
  const std::string& graph() const { return config_.graph; }

 private:
  /// Makes the session unsteppable: raises the interrupt, cancels pending
  /// annotation waits, and takes the op mutex once the stepping thread has
  /// left its round.
  std::unique_lock<std::mutex> Interrupt();

  /// Records the campaign's result in `state` and frees the campaign and
  /// its annotator: an ended session keeps only its result and trace.
  /// Caller holds op_mutex_.
  void FinishLocked(State state);

  Config config_;
  SessionTraceSink sink_;
  /// Guards annotator_ between Interrupt() on another thread and its
  /// release when the session ends.
  std::mutex annotator_mutex_;
  std::unique_ptr<Annotator> annotator_;  ///< null once the session ended.
  std::unique_ptr<Campaign> campaign_;    ///< null once the session ended.
  std::atomic<bool> interrupted_{false};

  std::mutex op_mutex_;  ///< serializes Step/Suspend/Stop.

  mutable std::mutex state_mutex_;  ///< guards state_/result_/error_.
  State state_ = State::kRunning;
  bool has_result_ = false;
  EvaluationResult result_;
  Status error_ = Status::OK();
};

}  // namespace kgacc::serve
