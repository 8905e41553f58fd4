// A seeded mutation corpus for the incremental-evaluation state parsers:
// valid kgacc-rs-state / kgacc-ss-state v2 files, cut short, with lines
// dropped, duplicated or swapped, and numbers replaced by hostile values.
// No restore may abort, throw or hang, and a restore that succeeds must
// leave an evaluator whose next update runs.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/state_io.h"
#include "kg/cluster_population.h"
#include "labels/synthetic_oracle.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgacc {
namespace {

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};
constexpr int kMutations = 2000;

const char* const kHostileNumbers[] = {"-1", "18446744073709551615", "nan",
                                       "inf", "1e308"};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// Replaces one numeric token of one line with a hostile number.
void ReplaceNumber(std::vector<std::string>& lines, Rng& rng) {
  std::vector<std::pair<size_t, size_t>> numbers;  // (line, token)
  std::vector<std::vector<std::string>> tokens(lines.size());
  for (size_t l = 0; l < lines.size(); ++l) {
    std::istringstream in(lines[l]);
    for (std::string token; in >> token;) {
      const char c = token[0];
      if ((c >= '0' && c <= '9') || c == '-') {
        numbers.emplace_back(l, tokens[l].size());
      }
      tokens[l].push_back(token);
    }
  }
  if (numbers.empty()) return;
  const auto [l, t] = numbers[rng.UniformIndex(numbers.size())];
  tokens[l][t] = kHostileNumbers[rng.UniformIndex(std::size(kHostileNumbers))];
  std::string line;
  for (const std::string& token : tokens[l]) {
    line += (line.empty() ? "" : " ") + token;
  }
  lines[l] = line;
}

/// One to three seeded mutations of `text`.
std::string Mutate(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = Lines(text);
  const uint64_t rounds = 1 + rng.UniformIndex(3);
  for (uint64_t r = 0; r < rounds && !lines.empty(); ++r) {
    const size_t a = rng.UniformIndex(lines.size());
    const size_t b = rng.UniformIndex(lines.size());
    switch (rng.UniformIndex(5)) {
      case 0: {  // truncation at any byte
        const std::string joined = Join(lines);
        return joined.substr(0, rng.UniformIndex(joined.size() + 1));
      }
      case 1:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
        break;
      case 2:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(a), lines[a]);
        break;
      case 3:
        std::swap(lines[a], lines[b]);
        break;
      default:
        ReplaceNumber(lines, rng);
    }
  }
  return Join(lines);
}

/// A small evolving KG: a base, one evaluated update and one more batch
/// appended for the update each restored evaluator must then run.
struct Fixture {
  ClusterPopulation population;
  PerClusterBernoulliOracle oracle{0x5eed};

  void Append(uint64_t clusters, double accuracy, Rng& rng) {
    for (uint64_t i = 0; i < clusters; ++i) {
      population.Append(1 + static_cast<uint32_t>(rng.UniformIndex(10)));
      oracle.Append(accuracy + 0.1 * rng.UniformDouble());
    }
  }
};

EvaluationOptions Options() {
  EvaluationOptions options;
  options.seed = 31;
  // Bounds the update a hostile but accepted state leads to.
  options.max_units = 2000;
  return options;
}

template <typename Evaluator, typename SaveFn, typename RestoreFn,
          typename OfferedFn>
void RunCorpus(SaveFn save, RestoreFn restore, OfferedFn offered) {
  Rng rng(3);
  Fixture kg;
  kg.Append(600, 0.8, rng);
  SimulatedAnnotator annotator(&kg.oracle, kCost);
  Evaluator original(&kg.population, &annotator, Options());
  original.Initialize();
  kg.Append(150, 0.6, rng);
  original.ApplyUpdate(600, 150);
  std::stringstream saved;
  ASSERT_TRUE(save(original, saved).ok());
  const std::string valid = saved.str();
  kg.Append(60, 0.7, rng);  // the next batch, [750, 810).

  Rng mutations(0x3a7e);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string text = Mutate(valid, mutations);
    SimulatedAnnotator fresh(&kg.oracle, kCost);
    Evaluator evaluator(&kg.population, &fresh, Options());
    std::stringstream in(text);
    Status status;
    EXPECT_NO_THROW(status = restore(in, &evaluator)) << text;
    if (!status.ok()) continue;
    ++accepted;
    const uint64_t first = offered(evaluator);
    ASSERT_LT(first, kg.population.NumClusters()) << text;
    EvaluationResult update;
    EXPECT_NO_THROW(update = evaluator.ApplyUpdate(
                        first, kg.population.NumClusters() - first))
        << text;
    EXPECT_GT(update.rounds, 0u) << text;
  }
  // Swaps of interchangeable records and repeated mutations of one value
  // leave some files valid; most are rejected.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations / 2);
}

TEST(StateMutationTest, ReservoirStateSurvivesMutations) {
  RunCorpus<ReservoirIncrementalEvaluator>(
      [](const ReservoirIncrementalEvaluator& e, std::ostream& out) {
        return SaveReservoirState(e, out);
      },
      [](std::istream& in, ReservoirIncrementalEvaluator* e) {
        return RestoreReservoirState(in, e);
      },
      [](const ReservoirIncrementalEvaluator& e) { return e.ClustersSeen(); });
}

TEST(StateMutationTest, StratifiedStateSurvivesMutations) {
  RunCorpus<StratifiedIncrementalEvaluator>(
      [](const StratifiedIncrementalEvaluator& e, std::ostream& out) {
        return SaveStratifiedState(e, out);
      },
      [](std::istream& in, StratifiedIncrementalEvaluator* e) {
        return RestoreStratifiedState(in, e);
      },
      [](const StratifiedIncrementalEvaluator& e) {
        const auto last = e.Snapshot().strata.back();
        return last.first_cluster + last.count;
      });
}

}  // namespace
}  // namespace kgacc
