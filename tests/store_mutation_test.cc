// A seeded mutation corpus for the kgacc-kgstore-v1 header: a valid store
// whose counts, flags, version and section descriptors are overwritten with
// hostile values, the header checksum re-sealed each time so the field
// checks behind it are reached. MappedGraph::Open must refuse the file or
// return a graph that Verify() can scan and twcs and rcs campaigns run on to
// the end; no mutation may abort, throw or hang.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/design_registry.h"
#include "kg/generator.h"
#include "kg/store/format.h"
#include "kg/store/mapped_graph.h"
#include "kg/store/store_writer.h"
#include "kg/symbol_table.h"
#include "labels/annotator.h"
#include "labels/synthetic_oracle.h"
#include "test_util.h"
#include "util/rng.h"

namespace kgacc {
namespace {

using store::Header;

constexpr CostModel kCost{.c1_seconds = 45.0, .c2_seconds = 25.0};
constexpr int kMutations = 2000;
constexpr uint64_t kCorpusSeed = 0x4ead;

/// One header field the corpus overwrites: its byte offset and width.
struct Field {
  size_t offset;
  size_t width;
};

std::vector<Field> HeaderFields() {
  std::vector<Field> fields = {
      {offsetof(Header, version), sizeof(uint32_t)},
      {offsetof(Header, flags), sizeof(uint32_t)},
      {offsetof(Header, num_clusters), sizeof(uint64_t)},
      {offsetof(Header, num_triples), sizeof(uint64_t)},
      {offsetof(Header, num_symbols), sizeof(uint64_t)},
  };
  for (size_t s = 0; s < store::kNumSections; ++s) {
    const size_t base =
        offsetof(Header, sections) + s * sizeof(store::SectionDesc);
    for (size_t member : {offsetof(store::SectionDesc, offset),
                          offsetof(store::SectionDesc, size_bytes),
                          offsetof(store::SectionDesc, checksum)}) {
      fields.push_back({base + member, sizeof(uint64_t)});
    }
  }
  return fields;
}

uint64_t Read(const Header& header, const Field& field) {
  uint64_t value = 0;  // little-endian hosts: the low bytes are the field.
  std::memcpy(&value, reinterpret_cast<const char*>(&header) + field.offset,
              field.width);
  return value;
}

void Write(Header& header, const Field& field, uint64_t value) {
  std::memcpy(reinterpret_cast<char*>(&header) + field.offset, &value,
              field.width);
}

/// A hostile replacement for `value`: an edge value, a near miss, a flipped
/// bit (the high ones make count * width wrap around 2^64), or another
/// field's value.
uint64_t MutateValue(uint64_t value, uint64_t other, Rng& rng) {
  switch (rng.UniformIndex(9)) {
    case 0: return 0;
    case 1: return value + 1;
    case 2: return value - 1;
    case 3: return ~uint64_t{0};
    case 4: return value ^ (uint64_t{1} << rng.UniformIndex(64));
    case 5: return value ^ (uint64_t{1} << (61 + rng.UniformIndex(3)));
    case 6: return value + 8 * (rng.UniformIndex(17)) - 64;
    case 7: return other;
    default: return rng.NextUint64();
  }
}

/// One to three field mutations of `valid`, the header checksum re-sealed.
Header Mutate(const Header& valid, const std::vector<Field>& fields,
              Rng& rng) {
  Header header = valid;
  const uint64_t rounds = 1 + rng.UniformIndex(3);
  for (uint64_t r = 0; r < rounds; ++r) {
    const Field& field = fields[rng.UniformIndex(fields.size())];
    const Field& other = fields[rng.UniformIndex(fields.size())];
    Write(header, field,
          MutateValue(Read(header, field), Read(header, other), rng));
  }
  header.header_checksum = store::HeaderChecksum(header);
  return header;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(StoreMutationTest, HostileHeadersAreRefusedOrServeACampaign) {
  Rng rng(17);
  std::vector<uint32_t> sizes;
  for (int i = 0; i < 150; ++i) {
    sizes.push_back(1 + static_cast<uint32_t>(rng.UniformIndex(12)));
  }
  const KnowledgeGraph graph =
      MaterializeGraph(sizes, GraphMaterializeOptions{}, rng);
  PerClusterBernoulliOracle labels(0x1abe1);
  for (uint64_t c = 0; c < graph.NumClusters(); ++c) labels.Append(0.85);
  SymbolTable symbols;
  for (const char* name : {"subject", "predicate", "object", ""}) {
    symbols.Intern(name);
  }
  const std::string path = testing::TempPath("mutated.kgstore");
  ASSERT_TRUE(WriteGraphStore(path, graph, &symbols, &labels).ok());
  const std::string valid = ReadAll(path);
  Header valid_header;
  ASSERT_GE(valid.size(), sizeof(Header));
  std::memcpy(&valid_header, valid.data(), sizeof(Header));

  // A graph whose label bitset a mutation removed is labeled by this one.
  PerClusterBernoulliOracle fallback(0xfa11);
  for (uint64_t c = 0; c < graph.NumClusters(); ++c) fallback.Append(0.7);
  EvaluationOptions options;
  options.seed = 7;
  options.max_units = 2000;  // bounds a campaign on an accepted mutation.

  const std::vector<Field> fields = HeaderFields();
  Rng mutations(kCorpusSeed);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const Header header = Mutate(valid_header, fields, mutations);
    std::string bytes = valid;
    std::memcpy(bytes.data(), &header, sizeof(Header));
    WriteAll(path, bytes);
    const bool verify = i % 2 == 1;

    Result<MappedGraph> opened = Status::Internal("not opened");
    EXPECT_NO_THROW(opened = MappedGraph::Open(
                        path, MappedGraph::OpenOptions{.verify_checksums =
                                                           verify}))
        << "mutation " << i;
    if (!opened.ok()) continue;
    ++accepted;
    const MappedGraph& mapped = *opened;
    EXPECT_NO_THROW((void)mapped.Verify()) << "mutation " << i;
    const MappedLabelOracle embedded(&mapped);
    const TruthOracle& oracle =
        mapped.has_labels() ? static_cast<const TruthOracle&>(embedded)
                            : fallback;
    // twcs draws through the triple-offset column, rcs uniformly over the
    // cluster count the header states.
    for (const char* design : {"twcs", "rcs"}) {
      SimulatedAnnotator annotator(&oracle, kCost);
      Result<EvaluationResult> run = Status::Internal("not run");
      EXPECT_NO_THROW(run = DesignRegistry::Global().Run(design, mapped,
                                                         &annotator, options))
          << design << ", mutation " << i;
      EXPECT_TRUE(run.ok()) << design << ", mutation " << i << ": "
                            << run.status().ToString();
      if (run.ok()) {
        EXPECT_GT(run->rounds, 0u) << design << ", mutation " << i;
      }
    }
  }
  // Checksums are not read by Open, and a copy of one equal-size section's
  // offset over another's passes every header check, so some mutations must
  // be accepted; most must not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations / 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
