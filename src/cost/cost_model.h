#pragma once

#include <cstdint>
#include <vector>

#include "kg/triple.h"

namespace kgacc {

/// The paper's manual-annotation cost function (Definition 3, Eq 4):
///
///   Cost(G') = |E'| * c1 + |G'| * c2
///
/// where E' is the set of distinct subject ids in the sample G', c1 the
/// average cost of Entity Identification and c2 the average cost of
/// Relationship Validation. The fitted values from the paper's human study
/// (Section 7.1.3) are c1 = 45s, c2 = 25s.
struct CostModel {
  double c1_seconds = 45.0;
  double c2_seconds = 25.0;

  /// Eq 4 for a sample with `num_entities` distinct subjects and
  /// `num_triples` triples, in seconds.
  double SampleCostSeconds(uint64_t num_entities, uint64_t num_triples) const {
    return static_cast<double>(num_entities) * c1_seconds +
           static_cast<double>(num_triples) * c2_seconds;
  }

  double SampleCostHours(uint64_t num_entities, uint64_t num_triples) const {
    return SampleCostSeconds(num_entities, num_triples) / 3600.0;
  }
};

/// Simulates the cumulative wall-clock of a human annotator working through
/// `sequence` in order (the Figure 1 experiment): the first triple of a not-
/// yet-identified cluster costs c1 + c2, subsequent triples of an identified
/// cluster cost c2. Returns one cumulative timestamp per annotated triple.
std::vector<double> CumulativeAnnotationSeconds(
    const std::vector<TripleRef>& sequence, const CostModel& model);

/// Running annotation-effort tally kept by SimulatedAnnotator; converts to
/// cost via Eq 4.
struct AnnotationLedger {
  uint64_t entities_identified = 0;
  uint64_t triples_annotated = 0;

  /// What was annotated since the snapshot `start` of this ledger.
  AnnotationLedger Since(const AnnotationLedger& start) const {
    return {entities_identified - start.entities_identified,
            triples_annotated - start.triples_annotated};
  }

  double Seconds(const CostModel& model) const {
    return model.SampleCostSeconds(entities_identified, triples_annotated);
  }
  double Hours(const CostModel& model) const {
    return model.SampleCostHours(entities_identified, triples_annotated);
  }

  AnnotationLedger& operator+=(const AnnotationLedger& other) {
    entities_identified += other.entities_identified;
    triples_annotated += other.triples_annotated;
    return *this;
  }
};

}  // namespace kgacc
