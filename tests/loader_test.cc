#include "kg/loader.h"

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "test_util.h"

namespace kgacc {
namespace {

TEST(LoaderTest, LoadsTriplesGroupedBySubject) {
  std::istringstream in(
      "mj\tbornIn\tbrooklyn\n"
      "mj\tplaysFor\tbulls\n"
      "lebron\tbornIn\takron\n");
  SymbolTable symbols;
  KnowledgeGraph kg;
  ASSERT_TRUE(LoadTsv(in, &symbols, &kg).ok());
  EXPECT_EQ(kg.NumClusters(), 2u);
  EXPECT_EQ(kg.TotalTriples(), 3u);
  EXPECT_EQ(kg.ClusterSize(0), 2u);  // mj.
  EXPECT_EQ(symbols.Name(kg.Cluster(0).subject), "mj");
}

TEST(LoaderTest, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "a\tp\tb\n"
      "   \n"
      "# trailing\n");
  SymbolTable symbols;
  KnowledgeGraph kg;
  ASSERT_TRUE(LoadTsv(in, &symbols, &kg).ok());
  EXPECT_EQ(kg.TotalTriples(), 1u);
}

TEST(LoaderTest, ParsesGoldLabels) {
  std::istringstream in(
      "a\tp\tb\t1\n"
      "a\tq\tc\t0\n");
  SymbolTable symbols;
  KnowledgeGraph kg;
  std::vector<LabeledTriple> labels;
  ASSERT_TRUE(LoadTsv(in, &symbols, &kg, &labels).ok());
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_TRUE(labels[0].correct);
  EXPECT_FALSE(labels[1].correct);
  EXPECT_EQ(labels[0].ref.cluster, labels[1].ref.cluster);
}

TEST(LoaderTest, LiteralDetection) {
  std::istringstream in(
      "movie\treleaseDate\t2008\n"       // digit -> literal.
      "movie\ttagline\t\"quoted\"\n"     // quote -> literal.
      "movie\tdirectedBy\tlewis\n");     // word -> entity.
  SymbolTable symbols;
  KnowledgeGraph kg;
  ASSERT_TRUE(LoadTsv(in, &symbols, &kg).ok());
  EXPECT_FALSE(kg.At(TripleRef{0, 0}).object.IsEntity());
  EXPECT_FALSE(kg.At(TripleRef{0, 1}).object.IsEntity());
  EXPECT_TRUE(kg.At(TripleRef{0, 2}).object.IsEntity());
}

TEST(LoaderTest, RejectsWrongFieldCount) {
  std::istringstream in("a\tp\n");
  SymbolTable symbols;
  KnowledgeGraph kg;
  const Status s = LoadTsv(in, &symbols, &kg);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("line 1"), std::string::npos);
}

TEST(LoaderTest, RejectsBadLabel) {
  std::istringstream in("a\tp\tb\tmaybe\n");
  SymbolTable symbols;
  KnowledgeGraph kg;
  EXPECT_TRUE(LoadTsv(in, &symbols, &kg).IsInvalidArgument());
}

TEST(LoaderTest, RejectsEmptyField) {
  std::istringstream in("a\t\tb\n");
  SymbolTable symbols;
  KnowledgeGraph kg;
  EXPECT_TRUE(LoadTsv(in, &symbols, &kg).IsInvalidArgument());
}

TEST(LoaderTest, MissingFileIsIOError) {
  SymbolTable symbols;
  KnowledgeGraph kg;
  EXPECT_TRUE(
      LoadTsvFile("/nonexistent/path/kg.tsv", &symbols, &kg).IsIOError());
}

TEST(LoaderTest, FileRoundTripOnDisk) {
  const std::string path = testing::TempPath("kgacc_loader_test.tsv");
  {
    SymbolTable symbols;
    KnowledgeGraph kg;
    std::istringstream in(
        "mj\tplaysFor\tbulls\n"
        "mj\twasBornIn\tbrooklyn\n"
        "lebron\tplaysFor\tlakers\n");
    ASSERT_TRUE(LoadTsv(in, &symbols, &kg).ok());
    ASSERT_TRUE(WriteTsvFile(path, symbols, kg).ok());
  }
  SymbolTable symbols;
  KnowledgeGraph kg;
  ASSERT_TRUE(LoadTsvFile(path, &symbols, &kg).ok());
  EXPECT_EQ(kg.NumClusters(), 2u);
  EXPECT_EQ(kg.TotalTriples(), 3u);
  EXPECT_TRUE(symbols.Contains("lakers"));
  std::remove(path.c_str());
}

TEST(LoaderTest, WriteThenLoadRoundTrips) {
  SymbolTable symbols;
  KnowledgeGraph kg;
  std::istringstream in(
      "s1\tp1\to1\n"
      "s1\tp2\to2\n"
      "s2\tp1\to1\n");
  ASSERT_TRUE(LoadTsv(in, &symbols, &kg).ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(out, symbols, kg).ok());

  SymbolTable symbols2;
  KnowledgeGraph kg2;
  std::istringstream in2(out.str());
  ASSERT_TRUE(LoadTsv(in2, &symbols2, &kg2).ok());
  EXPECT_EQ(kg2.NumClusters(), kg.NumClusters());
  EXPECT_EQ(kg2.TotalTriples(), kg.TotalTriples());
  EXPECT_EQ(symbols2.Name(kg2.Cluster(1).subject), "s2");
}

}  // namespace
}  // namespace kgacc
