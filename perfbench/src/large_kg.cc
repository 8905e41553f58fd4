// large-kg: static campaigns on a MOVIE-FULL-profile graph at one tenth of
// the paper's size. Per-campaign O(N) set-up (size-weighted samplers over
// 1.45M clusters) dominates; rcs adds ~1,300 rounds of whole-cluster
// annotation, so the round loop shows too.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "datasets/datasets.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kTriples = 13059180;  // MOVIE-FULL / 10.
constexpr double kAccuracy = 0.9;        // REM labels.
constexpr uint64_t kGraphSeed = 0x1a76e;
constexpr int kSetupRepeats = 5;
// Campaigns a second, measured over the mixed design cycle on a 4-vCPU VM.
constexpr double kCampaignsPerSecond = 14.0;

// Every registry design that runs on a sizes-only graph.
const char* const kDesigns[] = {"srs",        "rcs",        "wcs", "twcs",
                                "twcs+strat", "twcs+pilot", "rs",  "ss"};
constexpr uint64_t kNumDesigns = sizeof(kDesigns) / sizeof(kDesigns[0]);

kgacc::EvaluationOptions CampaignOptions(uint64_t seed, uint64_t campaign) {
  kgacc::EvaluationOptions options;  // paper defaults: MoE 5% at 95%.
  options.seed = kgacc::HashCombine(seed, 0x1a76e, campaign);
  return options;
}

}  // namespace

void RunLargeKg(const Args& args, RunRecord* record) {
  const kgacc::CostModel cost;
  kgacc::Dataset dataset;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  Tracer::SetPass(kPassSetup);
  Tracer::SetEnabled(args.trace);
  for (int r = 0; r < repeats; ++r) {
    dataset = kgacc::Dataset();  // at most one graph alive at a time.
    const Clock::time_point start = Clock::now();
    {
      // The graph is a fixed dataset, as MOVIE-FULL is; the seed draws the
      // campaigns run on it, so seeds differ in samples, not in the graph.
      ScopedSpan span("datasets.generate");
      dataset = kgacc::MakeMovieFull(kTriples, kAccuracy, kGraphSeed);
    }
    record->setup_s.push_back(Seconds(Clock::now() - start));
  }
  Tracer::SetEnabled(false);
  Tracer::SetPass(kPassScript);
  const kgacc::KgView& view = dataset.View();
  const kgacc::TruthOracle& oracle = *dataset.oracle;
  record->Check(view.TotalTriples() == kTriples,
                "generated graph has the wrong triple count");

  const uint64_t n =
      ScriptLength(args.seconds, kCampaignsPerSecond, kNumDesigns, 104);
  std::vector<std::string> fingerprints(n);
  const Clock::time_point script_start = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    const std::string design = kDesigns[i % kNumDesigns];
    const kgacc::EvaluationOptions options = CampaignOptions(args.seed, i);
    const Clock::time_point start = Clock::now();
    kgacc::Result<kgacc::EvaluationResult> result =
        PlainCampaign(design, view, oracle, cost, options);
    const Clock::time_point end = Clock::now();
    record->AddOp(Millis(end - start), Seconds(end - script_start));
    record->Check(result.ok(), design + ": " + result.status().ToString());
    if (!result.ok()) continue;
    CheckResult(*result, options, cost, design, record);
    record->hours.push_back(result->AnnotationHours());
    fingerprints[i] = Fingerprint(*result);
  }
  record->script_s = Seconds(Clock::now() - script_start);
  record->quantum = kNumDesigns;

  // One campaign per design, re-run with its seed, must be bit-identical.
  for (uint64_t i = 0; i < kNumDesigns && i < n; ++i) {
    kgacc::Result<kgacc::EvaluationResult> again =
        PlainCampaign(kDesigns[i], view, oracle, cost,
                      CampaignOptions(args.seed, i));
    record->Check(again.ok() && Fingerprint(*again) == fingerprints[i],
                  std::string(kDesigns[i]) + ": re-run is not bit-identical");
  }

  if (!args.trace) return;
  record->untraced_s = record->script_s;
  LayerCounts counts;
  Tracer::SetEnabled(true);
  const Clock::time_point traced_start = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    Tracer::SetOp(i);
    const std::string design = kDesigns[i % kNumDesigns];
    kgacc::Result<kgacc::EvaluationResult> result = TracedCampaign(
        design, view, oracle, cost, CampaignOptions(args.seed, i), &counts);
    record->Check(result.ok() && Fingerprint(*result) == fingerprints[i],
                  design + ": traced campaign differs from untraced");
  }
  record->traced_s = Seconds(Clock::now() - traced_start);
  Tracer::SetEnabled(false);
  record->counts["ops"] = static_cast<double>(n);
  counts.AddTo(&record->counts);
}

}  // namespace perfbench
