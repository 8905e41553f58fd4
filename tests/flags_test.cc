#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace kgacc {
namespace {

FlagParser MustParse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  Result<FlagParser> parsed =
      FlagParser::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

TEST(FlagParserTest, EqualsSyntax) {
  const FlagParser flags = MustParse({"--moe=0.03", "--design=twcs"});
  EXPECT_TRUE(flags.Has("moe"));
  EXPECT_EQ(flags.GetString("design", ""), "twcs");
  EXPECT_DOUBLE_EQ(flags.GetDouble("moe", 0.05).value(), 0.03);
}

TEST(FlagParserTest, SpaceSyntax) {
  const FlagParser flags = MustParse({"--seed", "99", "--design", "srs"});
  EXPECT_EQ(flags.GetUint64("seed", 0).value(), 99u);
  EXPECT_EQ(flags.GetString("design", ""), "srs");
}

TEST(FlagParserTest, BareBooleanFlag) {
  const FlagParser flags = MustParse({"--wilson", "--per-predicate"});
  EXPECT_TRUE(flags.GetBool("wilson", false));
  EXPECT_TRUE(flags.GetBool("per-predicate", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagParserTest, ExplicitBooleanValues) {
  const FlagParser flags = MustParse({"--a=false", "--b=0", "--c=yes"});
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
}

TEST(FlagParserTest, PositionalArguments) {
  const FlagParser flags = MustParse({"file1.tsv", "--design=srs", "file2.tsv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1.tsv");
  EXPECT_EQ(flags.positional()[1], "file2.tsv");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const FlagParser flags = MustParse({});
  EXPECT_EQ(flags.GetString("x", "fallback"), "fallback");
  EXPECT_EQ(flags.GetUint64("x", 7).value(), 7u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 1.5).value(), 1.5);
}

TEST(FlagParserTest, MalformedNumbersError) {
  const FlagParser flags = MustParse({"--n=abc", "--d=1.2.3"});
  EXPECT_TRUE(flags.GetUint64("n", 0).status().IsInvalidArgument());
  EXPECT_TRUE(flags.GetDouble("d", 0.0).status().IsInvalidArgument());
}

TEST(FlagParserTest, MalformedValueErrorNamesTheFlag) {
  // A tool reports the getter's error and exits; it never runs with the
  // default in place of a value it could not read.
  const FlagParser flags = MustParse(
      {"--moe", "abc", "--seed", "-3", "--m", "1.5", "--tolerance=x"});
  const Status moe = flags.GetDouble("moe", 0.05).status();
  const Status seed = flags.GetUint64("seed", 42).status();
  const Status m = flags.GetUint64("m", 0).status();
  const Status tolerance = flags.GetDouble("tolerance", 0.15).status();
  for (const auto& [status, flag] :
       {std::pair{moe, "--moe"}, std::pair{seed, "--seed"},
        std::pair{m, "--m "}, std::pair{tolerance, "--tolerance"}}) {
    EXPECT_TRUE(status.IsInvalidArgument()) << flag;
    EXPECT_NE(status.message().find(flag), std::string::npos)
        << status.message();
  }
  EXPECT_NE(seed.message().find("'-3'"), std::string::npos) << seed.message();
}

TEST(FlagParserTest, ValidateRejectsUnknownFlags) {
  const FlagParser flags = MustParse({"--knwon-typo=1"});
  EXPECT_TRUE(flags.Validate({"known"}).IsInvalidArgument());
  EXPECT_TRUE(MustParse({"--known=1"}).Validate({"known"}).ok());
}

TEST(FlagParserTest, BareDashDashIsError) {
  const char* args[] = {"prog", "--"};
  EXPECT_FALSE(FlagParser::Parse(2, args).ok());
}

TEST(FlagParserTest, LastValueWins) {
  const FlagParser flags = MustParse({"--m=3", "--m=7"});
  EXPECT_EQ(flags.GetUint64("m", 0).value(), 7u);
}

TEST(FlagParserTest, UnderscoreAndDashSpellOneFlag) {
  const FlagParser flags =
      MustParse({"--batch_units=5", "--chrome-trace", "t.json"});
  EXPECT_TRUE(flags.Has("batch-units"));
  EXPECT_TRUE(flags.Has("batch_units"));
  EXPECT_EQ(flags.GetUint64("batch-units", 0).value(), 5u);
  EXPECT_EQ(flags.GetUint64("batch_units", 0).value(), 5u);
  EXPECT_EQ(flags.GetString("chrome_trace", ""), "t.json");
  EXPECT_EQ(flags.GetString("chrome-trace", ""), "t.json");
  // Validate accepts either spelling of a known name, and still catches
  // what neither spelling names.
  EXPECT_TRUE(flags.Validate({"batch-units", "chrome_trace"}).ok());
  EXPECT_TRUE(flags.Validate({"batch_units", "chrome-trace"}).ok());
  EXPECT_TRUE(flags.Validate({"batch-units"}).IsInvalidArgument());
}

TEST(FlagParserTest, MixedSpellingsLastValueWins) {
  const FlagParser flags =
      MustParse({"--max-concurrent=3", "--max_concurrent=9"});
  EXPECT_EQ(flags.GetUint64("max-concurrent", 0).value(), 9u);
  const FlagParser reversed =
      MustParse({"--max_concurrent=9", "--max-concurrent", "3"});
  EXPECT_EQ(reversed.GetUint64("max_concurrent", 0).value(), 3u);
  const FlagParser booleans = MustParse({"--no_pipeline", "--no-pipeline=0"});
  EXPECT_FALSE(booleans.GetBool("no_pipeline", true));
}

}  // namespace
}  // namespace kgacc
