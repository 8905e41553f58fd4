// MappedGraph parity: every registered design, run over a mmap-backed
// .kgstore with its embedded labels, must produce the same EvaluationResult
// and the same per-round trace — bit for bit — as the same design over the
// in-memory KnowledgeGraph with the live oracle, at every annotation thread
// count. This is the contract that lets samplers, estimators and drivers
// run unmodified on the store substrate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/design_registry.h"
#include "core/telemetry.h"
#include "kg/generator.h"
#include "kg/knowledge_graph.h"
#include "kg/store/mapped_graph.h"
#include "kg/store/store_writer.h"
#include "labels/annotator.h"
#include "labels/synthetic_oracle.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};

struct ParityFixture {
  KnowledgeGraph graph;
  PerClusterBernoulliOracle oracle{0};
  std::string store_path;
};

ParityFixture MakeFixture() {
  ParityFixture fixture;
  Rng rng(20240917);
  std::vector<uint32_t> sizes;
  for (int i = 0; i < 260; ++i) {
    sizes.push_back(1 + static_cast<uint32_t>(rng.UniformIndex(10)));
  }
  fixture.graph = MaterializeGraph(sizes, GraphMaterializeOptions{}, rng);
  fixture.oracle = PerClusterBernoulliOracle(HashCombine(17, 0x7e57));
  Rng acc_rng(31);
  for (size_t c = 0; c < sizes.size(); ++c) {
    fixture.oracle.Append(0.55 + 0.4 * acc_rng.UniformDouble());
  }
  fixture.store_path = testing::TempPath("parity.kgstore");
  KGACC_CHECK(WriteGraphStore(fixture.store_path, fixture.graph, nullptr,
                              &fixture.oracle)
                  .ok());
  return fixture;
}

const ParityFixture& Fixture() {
  static const ParityFixture* fixture = new ParityFixture(MakeFixture());
  return *fixture;
}

/// One campaign of `design` over `view`/`oracle`, with its recorded trace.
struct CampaignOutcome {
  EvaluationResult result;
  std::vector<CampaignTrace> trace;
};

CampaignOutcome RunCampaign(const std::string& design, const KgView& view,
                            const TruthOracle& oracle, int threads) {
  TraceRecorder recorder;
  EvaluationOptions options;
  options.seed = 7;
  options.moe_target = 0.05;
  options.telemetry = &recorder;
  SimulatedAnnotator annotator(
      &oracle, kCost,
      SimulatedAnnotator::Options{.annotation_threads = threads});
  Result<EvaluationResult> run =
      DesignRegistry::Global().Run(design, view, &annotator, options);
  KGACC_CHECK(run.ok());
  return CampaignOutcome{std::move(run).value(), recorder.campaigns()};
}

void ExpectIdentical(const CampaignOutcome& in_memory,
                     const CampaignOutcome& mapped) {
  EXPECT_EQ(in_memory.result.design, mapped.result.design);
  EXPECT_EQ(in_memory.result.estimate.mean, mapped.result.estimate.mean);
  EXPECT_EQ(in_memory.result.estimate.variance_of_mean,
            mapped.result.estimate.variance_of_mean);
  EXPECT_EQ(in_memory.result.estimate.num_units,
            mapped.result.estimate.num_units);
  EXPECT_EQ(in_memory.result.moe, mapped.result.moe);
  EXPECT_EQ(in_memory.result.converged, mapped.result.converged);
  EXPECT_EQ(in_memory.result.rounds, mapped.result.rounds);
  EXPECT_EQ(in_memory.result.annotation_seconds,
            mapped.result.annotation_seconds);
  EXPECT_EQ(in_memory.result.ledger.triples_annotated,
            mapped.result.ledger.triples_annotated);
  EXPECT_EQ(in_memory.result.ledger.entities_identified,
            mapped.result.ledger.entities_identified);

  ASSERT_EQ(in_memory.trace.size(), mapped.trace.size());
  for (size_t c = 0; c < in_memory.trace.size(); ++c) {
    const CampaignTrace& a = in_memory.trace[c];
    const CampaignTrace& b = mapped.trace[c];
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.converged, b.converged);
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (size_t r = 0; r < a.rounds.size(); ++r) {
      // The serialized row is the cross-process contract (stream-trace and
      // the CI artifacts byte-compare these), so compare the JSON strings.
      EXPECT_EQ(RoundToJson(a.rounds[r]), RoundToJson(b.rounds[r]))
          << "campaign " << c << " round " << r;
    }
  }
}

class StoreParityTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreParityTest, EveryDesignMatchesInMemoryRun) {
  const int threads = GetParam();
  const ParityFixture& fixture = Fixture();
  Result<MappedGraph> opened = MappedGraph::Open(fixture.store_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MappedLabelOracle mapped_oracle(&*opened);

  for (const std::string& design : DesignRegistry::Global().Names()) {
    SCOPED_TRACE(design + " @" + std::to_string(threads) + " threads");
    const CampaignOutcome in_memory =
        RunCampaign(design, fixture.graph, fixture.oracle, threads);
    const CampaignOutcome mapped =
        RunCampaign(design, *opened, mapped_oracle, threads);
    ExpectIdentical(in_memory, mapped);
  }
}

INSTANTIATE_TEST_SUITE_P(AnnotationThreads, StoreParityTest,
                         ::testing::Values(1, 4, 8));

}  // namespace
}  // namespace kgacc
