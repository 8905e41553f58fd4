// kgacc-kgstore-v1 format tests: write/open round-trips, byte-identity of
// the streaming writer, and rejection of malformed files. The format is the
// durable contract between StoreWriter and every MappedGraph consumer, so
// these tests pin it down to the byte.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "kg/generator.h"
#include "kg/knowledge_graph.h"
#include "kg/store/format.h"
#include "kg/store/mapped_graph.h"
#include "kg/store/store_writer.h"
#include "kg/symbol_table.h"
#include "labels/synthetic_oracle.h"
#include "test_util.h"
#include "util/rng.h"

namespace kgacc {
namespace {

std::string TestPath(const std::string& name) {
  return testing::TempPath(name);
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

/// A small materialized graph with heterogeneous cluster sizes.
KnowledgeGraph MakeSmallGraph(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> sizes;
  for (int i = 0; i < 120; ++i) {
    sizes.push_back(1 + static_cast<uint32_t>(rng.UniformIndex(9)));
  }
  return MaterializeGraph(sizes, GraphMaterializeOptions{}, rng);
}

TEST(StoreFormatTest, RoundTripsTriplesLabelsAndSymbols) {
  const KnowledgeGraph graph = MakeSmallGraph(11);
  PerClusterBernoulliOracle oracle(HashCombine(11, 0x7e57));
  for (uint64_t c = 0; c < graph.NumClusters(); ++c) oracle.Append(0.8);
  SymbolTable symbols;
  symbols.Intern("alpha");
  symbols.Intern("beta");
  symbols.Intern("");  // empty names must survive the blob round-trip.
  symbols.Intern("a much longer predicate name with spaces");

  const std::string path = TestPath("store_roundtrip.kgstore");
  ASSERT_TRUE(WriteGraphStore(path, graph, &symbols, &oracle).ok());

  Result<MappedGraph> opened = MappedGraph::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MappedGraph& mapped = *opened;
  EXPECT_TRUE(mapped.Verify().ok());
  ASSERT_EQ(mapped.NumClusters(), graph.NumClusters());
  ASSERT_EQ(mapped.TotalTriples(), graph.TotalTriples());
  ASSERT_TRUE(mapped.has_labels());
  ASSERT_TRUE(mapped.has_symbols());
  ASSERT_EQ(mapped.NumSymbols(), symbols.size());
  for (uint32_t s = 0; s < symbols.size(); ++s) {
    EXPECT_EQ(mapped.SymbolName(s), symbols.Name(s));
  }
  for (uint64_t c = 0; c < graph.NumClusters(); ++c) {
    ASSERT_EQ(mapped.ClusterSize(c), graph.ClusterSize(c));
    EXPECT_EQ(mapped.ClusterSubject(c), graph.ClusterSubject(c));
    for (uint64_t j = 0; j < graph.ClusterSize(c); ++j) {
      const TripleRef ref{c, j};
      const Triple want = graph.TripleAt(ref);
      const Triple got = mapped.TripleAt(ref);
      EXPECT_EQ(got.subject, want.subject);
      EXPECT_EQ(got.predicate, want.predicate);
      EXPECT_EQ(got.object.id, want.object.id);
      EXPECT_EQ(got.object.kind, want.object.kind);
      EXPECT_EQ(mapped.LabelAt(ref), oracle.IsCorrect(ref));
    }
  }
}

TEST(StoreFormatTest, StreamedStoreIsByteIdenticalToMaterializedWrite) {
  std::vector<uint32_t> sizes;
  Rng size_rng(99);
  for (int i = 0; i < 200; ++i) {
    sizes.push_back(1 + static_cast<uint32_t>(size_rng.UniformIndex(12)));
  }
  PerClusterBernoulliOracle oracle(HashCombine(5, 0x7e57));
  for (size_t c = 0; c < sizes.size(); ++c) oracle.Append(0.7);
  const GraphMaterializeOptions options;

  const std::string streamed_path = TestPath("store_streamed.kgstore");
  Rng stream_rng(1234);
  ASSERT_TRUE(MaterializeGraphToStore(sizes, options, stream_rng,
                                      streamed_path, &oracle)
                  .ok());

  const std::string materialized_path = TestPath("store_materialized.kgstore");
  Rng graph_rng(1234);
  const KnowledgeGraph graph = MaterializeGraph(sizes, options, graph_rng);
  ASSERT_TRUE(
      WriteGraphStore(materialized_path, graph, nullptr, &oracle).ok());

  const std::string streamed = ReadAll(streamed_path);
  const std::string materialized = ReadAll(materialized_path);
  ASSERT_FALSE(streamed.empty());
  EXPECT_EQ(streamed, materialized);
}

TEST(StoreFormatTest, ZeroTripleStoreRoundTrips) {
  const std::string path = TestPath("store_empty.kgstore");
  Result<StoreWriter> writer = StoreWriter::Create(path, 0, 0);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Finish().ok());
  Result<MappedGraph> opened = MappedGraph::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->NumClusters(), 0u);
  EXPECT_EQ(opened->TotalTriples(), 0u);
  EXPECT_FALSE(opened->has_labels());
  EXPECT_FALSE(opened->has_symbols());
  EXPECT_TRUE(opened->Verify().ok());
}

class StoreRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("store_rejection.kgstore");
    const KnowledgeGraph graph = MakeSmallGraph(3);
    ASSERT_TRUE(WriteGraphStore(path_, graph, nullptr, nullptr).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), sizeof(store::Header));
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(StoreRejectionTest, RejectsTruncatedFile) {
  // Shorter than the header: unconditionally rejected.
  WriteAll(path_, bytes_.substr(0, sizeof(store::Header) / 2));
  EXPECT_FALSE(MappedGraph::Open(path_).ok());
  // Header intact but sections cut off: the bounds check must catch it
  // without touching the missing bytes.
  WriteAll(path_, bytes_.substr(0, bytes_.size() - 64));
  EXPECT_FALSE(MappedGraph::Open(path_).ok());
}

TEST_F(StoreRejectionTest, RejectsBadMagic) {
  std::string corrupted = bytes_;
  corrupted[0] = 'X';
  WriteAll(path_, corrupted);
  const Result<MappedGraph> opened = MappedGraph::Open(path_);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("kgacc-kgstore"), std::string::npos)
      << opened.status().ToString();
}

TEST_F(StoreRejectionTest, RejectsTamperedHeader) {
  // Flip a count inside the header without fixing the header checksum.
  std::string corrupted = bytes_;
  corrupted[offsetof(store::Header, num_triples)] ^= 0x01;
  WriteAll(path_, corrupted);
  EXPECT_FALSE(MappedGraph::Open(path_).ok());
}

TEST_F(StoreRejectionTest, VerifyCatchesFlippedDataByte) {
  // A flipped byte in a data column passes the O(1) open (which reads only
  // the header and the offset endpoints) but must fail the full Verify.
  std::string corrupted = bytes_;
  corrupted[corrupted.size() - 1] ^= 0x40;
  WriteAll(path_, corrupted);
  Result<MappedGraph> opened = MappedGraph::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened->Verify().ok());
  // OpenOptions{.verify_checksums = true} folds Verify into Open.
  MappedGraph::OpenOptions verify_on_open;
  verify_on_open.verify_checksums = true;
  EXPECT_FALSE(MappedGraph::Open(path_, verify_on_open).ok());
}

TEST_F(StoreRejectionTest, RejectsOverflowingSectionOffset) {
  // Point a section near UINT64_MAX so offset + size wraps; the overflow-safe
  // bounds check must reject it instead of mapping out of range. The header
  // checksum is recomputed so only the bounds check can catch it.
  std::string corrupted = bytes_;
  store::Header header;
  std::memcpy(&header, corrupted.data(), sizeof(header));
  header.sections[store::kSubjects].offset = UINT64_MAX - 8;
  header.header_checksum = store::HeaderChecksum(header);
  std::memcpy(corrupted.data(), &header, sizeof(header));
  WriteAll(path_, corrupted);
  const Result<MappedGraph> opened = MappedGraph::Open(path_);
  ASSERT_FALSE(opened.ok());
}

TEST_F(StoreRejectionTest, RejectsUnsupportedVersion) {
  std::string corrupted = bytes_;
  store::Header header;
  std::memcpy(&header, corrupted.data(), sizeof(header));
  header.version = store::kFormatVersion + 1;
  header.header_checksum = store::HeaderChecksum(header);
  std::memcpy(corrupted.data(), &header, sizeof(header));
  WriteAll(path_, corrupted);
  const Result<MappedGraph> opened = MappedGraph::Open(path_);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("version"), std::string::npos)
      << opened.status().ToString();
}

TEST(StoreWriterTest, GuardsAgainstCountMismatch) {
  const std::string path = TestPath("store_guard.kgstore");
  Result<StoreWriter> writer = StoreWriter::Create(path, 2, 3);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginCluster(0).ok());
  ASSERT_TRUE(writer->AddTriple(1, ObjectRef::Entity(7)).ok());
  // Finishing before all declared clusters/triples were added must fail.
  EXPECT_FALSE(writer->Finish().ok());
}

/// Every triple of `view`, in cluster order.
std::vector<Triple> AllTriples(const TripleView& view) {
  std::vector<Triple> triples;
  for (uint64_t c = 0; c < view.NumClusters(); ++c) {
    for (uint64_t offset = 0; offset < view.ClusterSize(c); ++offset) {
      triples.push_back(view.TripleAt(TripleRef{c, offset}));
    }
  }
  return triples;
}

/// Directory entries next to `path` that start with its file name plus
/// ".tmp" — the writer's in-progress files.
std::vector<std::string> TempSiblings(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string prefix = path.substr(slash + 1) + ".tmp";
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(path.substr(0, slash))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  return found;
}

TEST(StoreWriterTest, RebuildLeavesAnOpenMappingIntact) {
  const std::string path = TestPath("store_rebuild.kgstore");
  const KnowledgeGraph old_graph = MakeSmallGraph(21);
  const KnowledgeGraph new_graph = MakeSmallGraph(22);
  ASSERT_NE(AllTriples(old_graph), AllTriples(new_graph));
  ASSERT_TRUE(WriteGraphStore(path, old_graph).ok());
  Result<MappedGraph> live = MappedGraph::Open(path);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // Rebuilding the same path (what a daemon's --preload store sees when it
  // is regenerated) must not touch the pages the live mapping reads.
  ASSERT_TRUE(WriteGraphStore(path, new_graph).ok());
  EXPECT_TRUE(live->Verify().ok());
  EXPECT_EQ(AllTriples(*live), AllTriples(old_graph));

  Result<MappedGraph> fresh = MappedGraph::Open(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh->Verify().ok());
  EXPECT_EQ(AllTriples(*fresh), AllTriples(new_graph));
  EXPECT_TRUE(TempSiblings(path).empty());
  std::remove(path.c_str());
}

TEST(StoreWriterTest, FailedBuildLeavesTheOldFileIntact) {
  const std::string path = TestPath("store_failed_rebuild.kgstore");
  const KnowledgeGraph graph = MakeSmallGraph(23);
  ASSERT_TRUE(WriteGraphStore(path, graph).ok());
  const std::string before = ReadAll(path);
  {
    Result<StoreWriter> writer = StoreWriter::Create(path, 2, 3);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->BeginCluster(0).ok());
    ASSERT_TRUE(writer->AddTriple(1, ObjectRef::Entity(7)).ok());
    EXPECT_EQ(TempSiblings(path).size(), 1u);
    EXPECT_FALSE(writer->Finish().ok());  // the count check fails.
  }
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_TRUE(TempSiblings(path).empty());
  Result<MappedGraph> opened = MappedGraph::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->Verify().ok());
  EXPECT_EQ(AllTriples(*opened), AllTriples(graph));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
