#include "serve/serve_session.h"

#include <utility>

#include "core/design_registry.h"
#include "labels/annotator_spec.h"
#include "labels/observed_annotator.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgacc::serve {

void SessionTraceSink::BeginCampaign(const std::string& design,
                                     const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.design = design;
  trace_.label = label;
}

void SessionTraceSink::OnRound(const CampaignRound& round) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.rounds.push_back(round);
}

void SessionTraceSink::EndCampaign(bool converged) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.converged = converged;
}

SessionTraceSink::Progress SessionTraceSink::GetProgress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Progress progress;
  progress.rounds = trace_.rounds.size();
  if (!trace_.rounds.empty()) progress.last = trace_.rounds.back();
  return progress;
}

CampaignTrace SessionTraceSink::TraceAfter(uint64_t from) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CampaignTrace out;
  out.design = trace_.design;
  out.label = trace_.label;
  out.converged = trace_.converged;
  for (const CampaignRound& round : trace_.rounds) {
    if (round.round > from) out.rounds.push_back(round);
  }
  return out;
}

const char* ServeSession::StateName(State state) {
  switch (state) {
    case State::kRunning: return "running";
    case State::kSuspended: return "suspended";
    case State::kCompleted: return "completed";
    case State::kStopped: return "stopped";
  }
  return "unknown";
}

ServeSession::ServeSession(Config config) : config_(std::move(config)) {
  KGACC_CHECK(config_.dataset != nullptr);
  KGACC_CHECK(config_.options.telemetry == nullptr &&
              config_.options.control == nullptr)
      << "the session wires its own telemetry";
  Result<std::unique_ptr<Annotator>> annotator =
      MakeAnnotator(config_.annotator, config_.dataset->oracle.get());
  if (!annotator.ok()) {
    state_ = State::kStopped;
    error_ = annotator.status();
    return;
  }
  annotator_ = std::move(annotator).value();
  if (config_.observer != nullptr) {
    annotator_ = std::make_unique<ObservedAnnotator>(std::move(annotator_),
                                                     config_.observer);
  }
  EvaluationOptions options = config_.options;
  options.telemetry = &sink_;
  Result<std::unique_ptr<Campaign>> made =
      DesignRegistry::Global().MakeCampaign(
          config_.design, config_.dataset->View(), annotator_.get(), options);
  if (!made.ok()) {
    state_ = State::kStopped;
    error_ = made.status();
    return;
  }
  campaign_ = std::move(made).value();
  // Resume: replay the rounds the suspended campaign had completed. The
  // campaign is deterministic, so this lands bit-identically where the
  // original stopped, with the same ledger: replay re-annotates exactly the
  // triples the original paid for.
  for (uint64_t k = 0; k < config_.replay_rounds && !campaign_->Done(); ++k) {
    campaign_->Step();
  }
  if (campaign_->Done()) FinishLocked(State::kCompleted);
}

std::unique_lock<std::mutex> ServeSession::Interrupt() {
  interrupted_.store(true);
  // With the async bridge, the stepping thread may be mid-round waiting out
  // simulated latency; cancel the waits (never the work — labels still
  // resolve, so the suspended state stays bit-identical) so it leaves the
  // round promptly.
  {
    std::lock_guard<std::mutex> lock(annotator_mutex_);
    if (annotator_ != nullptr) annotator_->CancelPending();
  }
  return std::unique_lock<std::mutex>(op_mutex_);
}

void ServeSession::FinishLocked(State state) {
  EvaluationResult result = campaign_->Result();
  result.suspended = state != State::kCompleted;
  campaign_.reset();
  {
    std::lock_guard<std::mutex> lock(annotator_mutex_);
    annotator_.reset();
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  result_ = std::move(result);
  has_result_ = true;
  state_ = state;
}

Status ServeSession::Step(uint64_t rounds) {
  std::lock_guard<std::mutex> op(op_mutex_);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (state_ == State::kSuspended || state_ == State::kStopped) {
      return Status::FailedPrecondition(
          StrFormat("session %s is %s", config_.id.c_str(),
                    StateName(state_)));
    }
    if (state_ == State::kCompleted) return Status::OK();  // nothing to do.
  }
  for (uint64_t k = 0; (rounds == 0 || k < rounds) && !interrupted_.load();
       ++k) {
    campaign_->Step();
    if (campaign_->Done()) {
      FinishLocked(State::kCompleted);
      break;
    }
  }
  return Status::OK();
}

Result<CampaignSessionState> ServeSession::Suspend() {
  const std::unique_lock<std::mutex> op = Interrupt();
  CampaignSessionState state;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (state_ == State::kCompleted || state_ == State::kStopped) {
      return Status::FailedPrecondition(
          StrFormat("session %s is %s: nothing to suspend",
                    config_.id.c_str(), StateName(state_)));
    }
  }
  if (campaign_ != nullptr) FinishLocked(State::kSuspended);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state.rounds_completed = result_.rounds;
  }
  state.design = config_.design;
  state.graph = config_.graph;
  state.options = config_.options;
  state.annotator = config_.annotator;
  return state;
}

Status ServeSession::Stop() {
  const std::unique_lock<std::mutex> op = Interrupt();
  if (campaign_ != nullptr) {
    FinishLocked(State::kStopped);
  } else {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_ = State::kStopped;
  }
  return Status::OK();
}

ServeSession::Info ServeSession::GetInfo() const {
  Info info;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    info.state = state_;
    info.has_result = has_result_;
    if (has_result_) info.result = result_;
    info.error = error_;
  }
  info.rounds = sink_.GetProgress().rounds;
  return info;
}

}  // namespace kgacc::serve
