#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/engine.h"
#include "kg/kg_view.h"
#include "sampling/srs.h"
#include "util/rng.h"

namespace kgacc {

/// The Section 5 sampling designs, each a UnitSampler that the one campaign
/// loop drives. Every sampler owns its without-replacement bookkeeping and
/// returns SampleUnits in the coordinates of the view it samples.

/// SRS of triples (Section 5.1): one unit per sampled triple.
class SrsUnitSampler : public UnitSampler {
 public:
  explicit SrsUnitSampler(const KgView& view);

  std::vector<SampleUnit> NextBatch(uint64_t n, Rng& rng) override;
  bool Exhaustible() const override { return true; }

 private:
  TriplePrefixIndex index_;
  DistinctIndexSampler ordinals_;
};

/// Random cluster sampling (Section 5.2.1): uniform, without replacement;
/// a unit is a whole cluster.
class RcsUnitSampler : public UnitSampler {
 public:
  explicit RcsUnitSampler(const KgView& view);

  std::vector<SampleUnit> NextBatch(uint64_t n, Rng& rng) override;
  bool Exhaustible() const override { return true; }

 private:
  const KgView& view_;
  DistinctIndexSampler clusters_;
};

/// The TWCS second stage (Section 5.2.3) on a drawn `cluster` of `view`: an
/// SRS of min(M_i, m) of its triples, without replacement. Every TWCS unit,
/// stratified or not, is drawn through it.
SampleUnit TwcsUnit(const KgView& view, uint64_t cluster, uint64_t m,
                    Rng& rng);

/// Two-stage weighted cluster sampling (Section 5.2.3): the first stage draws
/// clusters with replacement with probability pi_i = M_i / M, the second an
/// SRS of min(M_i, m) triples without replacement inside each drawn cluster.
/// A unit is one first-stage draw with its second-stage offsets; a cluster
/// drawn twice yields two independent units. m = 1 degenerates to SRS
/// (Proposition 2).
class TwcsUnitSampler : public UnitSampler {
 public:
  TwcsUnitSampler(const KgView& view, uint64_t m);

  std::vector<SampleUnit> NextBatch(uint64_t n, Rng& rng) override;

 private:
  const KgView& view_;
  TriplePrefixIndex index_;
  uint64_t m_;
};

/// Weighted cluster sampling (Section 5.2.2): size-proportional, with
/// replacement; a unit is a whole cluster — TWCS with no second-stage cap.
class WcsUnitSampler : public TwcsUnitSampler {
 public:
  explicit WcsUnitSampler(const KgView& view)
      : TwcsUnitSampler(view, std::numeric_limits<uint64_t>::max()) {}
};

}  // namespace kgacc
