// GraphStore keys path-like names by canonical absolute path: the same
// store file loaded through different relative spellings must resolve to
// ONE shared dataset (one mmap), not N copies. Pins the canonicalization
// applied by Load, Get and Put.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "kg/generator.h"
#include "kg/store/store_writer.h"
#include "labels/synthetic_oracle.h"
#include "serve/graph_store.h"
#include "util/rng.h"
#include "test_util.h"

namespace kgacc {
namespace {

std::string MakeStoreFile(const std::string& name) {
  Rng rng(5);
  std::vector<uint32_t> sizes(50, 3);
  const KnowledgeGraph graph =
      MaterializeGraph(sizes, GraphMaterializeOptions{}, rng);
  PerClusterBernoulliOracle oracle(HashCombine(5, 0x7e57));
  for (size_t c = 0; c < sizes.size(); ++c) oracle.Append(0.9);
  const std::string path = testing::TempPath(name);
  EXPECT_TRUE(WriteGraphStore(path, graph, nullptr, &oracle).ok());
  return path;
}

TEST(GraphStorePathTest, RelativeSpellingsShareOneMapping) {
  const std::string absolute = MakeStoreFile("path_canon.kgstore");
  // Two spellings of the same file: the absolute path, and one that detours
  // through the parent directory. realpath collapses both to one key.
  const size_t slash = absolute.find_last_of('/');
  const std::string dir = absolute.substr(0, slash);
  const std::string base = absolute.substr(slash + 1);
  const size_t parent_slash = dir.find_last_of('/');
  ASSERT_NE(parent_slash, std::string::npos);
  const std::string dir_name = dir.substr(parent_slash + 1);
  const std::string detour =
      dir + "/../" + dir_name + "/./" + base;

  serve::GraphStore store;
  Result<std::shared_ptr<const Dataset>> first = store.Load(absolute, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<std::shared_ptr<const Dataset>> second = store.Load(detour, 1);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Same shared_ptr, not an equivalent copy: the second load was a no-op.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(store.Names().size(), 1u);

  // Get resolves either spelling to the one entry.
  Result<std::shared_ptr<const Dataset>> got = store.Get(detour);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), first->get());
}

TEST(GraphStorePathTest, CwdRelativeSpellingMatchesAbsolute) {
  const std::string absolute = MakeStoreFile("path_cwd.kgstore");
  const size_t slash = absolute.find_last_of('/');
  char cwd_buf[4096];
  ASSERT_NE(::getcwd(cwd_buf, sizeof(cwd_buf)), nullptr);
  const std::string original_cwd = cwd_buf;
  ASSERT_EQ(::chdir(absolute.substr(0, slash).c_str()), 0);

  serve::GraphStore store;
  Result<std::shared_ptr<const Dataset>> relative =
      store.Load(absolute.substr(slash + 1), 1);
  ASSERT_TRUE(relative.ok()) << relative.status().ToString();
  Result<std::shared_ptr<const Dataset>> abs = store.Load(absolute, 1);
  ASSERT_TRUE(abs.ok()) << abs.status().ToString();
  EXPECT_EQ(relative->get(), abs->get());
  EXPECT_EQ(store.Names().size(), 1u);

  ASSERT_EQ(::chdir(original_cwd.c_str()), 0);
}

TEST(GraphStorePathTest, NonPathNamesAreKeyedVerbatim) {
  serve::GraphStore store;
  // Built-in dataset names are not paths; they must not be canonicalized
  // into path keys (and stay loadable by their plain name).
  Result<std::shared_ptr<const Dataset>> nell = store.Load("nell", 3);
  ASSERT_TRUE(nell.ok()) << nell.status().ToString();
  Result<std::shared_ptr<const Dataset>> again = store.Get("nell");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(nell->get(), again->get());
}

std::string WriteTextFile(const std::string& name, const std::string& text) {
  const std::string path = testing::TempPath(name);
  std::ofstream(path) << text;
  return path;
}

TEST(GraphStorePathTest, ATsvWithoutTriplesIsRefusedNamingIt) {
  // A campaign on a graph without triples cannot draw its first unit; the
  // load is refused before any session can be started on it.
  for (const std::string& text :
       {std::string(""), std::string("# comment only\n\n")}) {
    const std::string path = WriteTextFile("empty_graph.tsv", text);
    serve::GraphStore store;
    const Result<std::shared_ptr<const Dataset>> loaded = store.Load(path, 1);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("empty_graph"),
              std::string::npos)
        << loaded.status().message();
    EXPECT_NE(loaded.status().message().find("no triples"), std::string::npos)
        << loaded.status().message();
    EXPECT_TRUE(store.Names().empty());
    std::remove(path.c_str());
  }
}

TEST(GraphStorePathTest, ATsvKeepsItsSymbols) {
  const std::string path = WriteTextFile(
      "symbols_graph.tsv", "alice\tknows\tbob\t1\nbob\tage\t42\t0\n");
  serve::GraphStore store;
  const Result<std::shared_ptr<const Dataset>> loaded = store.Load(path, 1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& dataset = **loaded;
  EXPECT_EQ(dataset.View().TotalTriples(), 2u);
  ASSERT_NE(dataset.symbols, nullptr);
  EXPECT_TRUE(dataset.symbols->Contains("knows"));
  EXPECT_TRUE(dataset.symbols->Contains("age"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
