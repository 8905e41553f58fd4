#pragma once

#include <cstdint>

namespace kgacc {

/// Round-granularity control of a campaign run to completion: the hook
/// RunCampaign (core/campaign.h) — the one place that consults it — offers
/// before every round, so an observer can count rounds or stop a campaign
/// partway.
///
/// RunCampaign asks the control *before* starting each round. On kSuspend
/// the loop ends immediately and returns the partial result with
/// `suspended = true` and `rounds` equal to the rounds actually completed;
/// the campaign's telemetry stays open.
///
/// Contract: the control never influences *what* a campaign computes, only
/// how far it runs. A campaign stopped after k rounds and later re-run from
/// scratch with the same options/seed for k rounds (deterministic replay)
/// is bit-identical to an uninterrupted run at that point. Serve sessions
/// need no control: they step their Campaign directly.
class CampaignControl {
 public:
  enum class Action {
    kProceed,  ///< run the round.
    kSuspend,  ///< unwind now; the campaign reports `suspended = true`.
  };

  virtual ~CampaignControl() = default;

  /// Consulted before round `next_round` (1-based) begins. May block.
  virtual Action BeforeRound(uint64_t next_round) = 0;
};

}  // namespace kgacc
