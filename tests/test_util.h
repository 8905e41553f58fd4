#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/design_registry.h"
#include "kg/cluster_population.h"
#include "kg/kg_view.h"
#include "labels/synthetic_oracle.h"
#include "stats/stratification.h"
#include "util/rng.h"

namespace kgacc::testing {

/// A path for `name` under gtest's TempDir() that no other process uses: the
/// pid goes before the extension ("parity.kgstore" -> "parity-123.kgstore").
/// ctest runs every discovered test in its own process, and under -j they
/// share TempDir(), so a fixed name would be rewritten by one test while
/// another still reads (or maps) it.
inline std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  const size_t dot = name.find('.');
  const std::string pid = "-" + std::to_string(::getpid());
  return dir + "/" +
         (dot == std::string::npos
              ? name + pid
              : name.substr(0, dot) + pid + name.substr(dot));
}

/// Runs one campaign of registry design `design` to completion, failing the
/// calling test (and returning an empty result) when the registry refuses.
inline EvaluationResult RunDesign(const std::string& design,
                                  const KgView& view, Annotator* annotator,
                                  const EvaluationOptions& options) {
  Result<EvaluationResult> run =
      DesignRegistry::Global().Run(design, view, annotator, options);
  EXPECT_TRUE(run.ok()) << design << ": " << run.status().ToString();
  return run.ok() ? std::move(run).value() : EvaluationResult{};
}

/// A small synthetic population paired with its label oracle, for estimator
/// and framework tests.
struct TestPopulation {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0};
  double true_accuracy = 0.0;  // triple-weighted expected accuracy.
};

/// Builds `num_clusters` clusters with sizes in [1, max_size] and per-cluster
/// accuracies drawn around `accuracy` with `spread` (clamped to [0,1]).
inline TestPopulation MakeTestPopulation(uint64_t num_clusters,
                                         uint32_t max_size, double accuracy,
                                         double spread, uint64_t seed) {
  Rng rng(seed);
  TestPopulation out;
  out.oracle = PerClusterBernoulliOracle(HashCombine(seed, 0x7e57));
  double weighted = 0.0;
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_clusters; ++i) {
    const uint32_t size =
        1 + static_cast<uint32_t>(rng.UniformIndex(max_size));
    double p = accuracy + spread * (rng.UniformDouble() - 0.5) * 2.0;
    p = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
    out.population.Append(size);
    out.oracle.Append(p);
    weighted += static_cast<double>(size) * p;
    total += size;
  }
  out.true_accuracy = weighted / static_cast<double>(total);
  return out;
}

/// Forwards everything but TripleOffsets(), so an index over it builds its
/// own column (the path KnowledgeGraph takes).
class NoColumnView : public KgView {
 public:
  explicit NoColumnView(const KgView& inner) : inner_(inner) {}
  uint64_t NumClusters() const override { return inner_.NumClusters(); }
  uint64_t ClusterSize(uint64_t cluster) const override {
    return inner_.ClusterSize(cluster);
  }
  uint64_t TotalTriples() const override { return inner_.TotalTriples(); }

 private:
  const KgView& inner_;
};

/// Each stratum's clusters in ascending id order, read off the stratum id
/// per cluster.
inline std::vector<std::vector<uint32_t>> StrataMembers(const Strata& strata) {
  std::vector<std::vector<uint32_t>> members(strata.NumStrata());
  for (size_t c = 0; c < strata.stratum_of.size(); ++c) {
    members.at(strata.stratum_of[c]).push_back(static_cast<uint32_t>(c));
  }
  return members;
}

}  // namespace kgacc::testing
