#include "util/json.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace kgacc {
namespace {

TEST(JsonTest, ParsesScalarsAndContainers) {
  const Result<JsonValue> parsed = JsonValue::Parse(
      R"({"name": "trace", "ok": true, "none": null,
          "pi": 3.25, "neg": -2e-3,
          "rows": [1, 2.5, "x", false, {"k": []}]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = *parsed;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.GetString("name").value(), "trace");
  EXPECT_TRUE(doc.GetBool("ok").value());
  EXPECT_TRUE(doc.Find("none")->is_null());
  EXPECT_DOUBLE_EQ(doc.GetNumber("pi").value(), 3.25);
  EXPECT_DOUBLE_EQ(doc.GetNumber("neg").value(), -2e-3);
  const JsonValue::Array& rows = doc.Find("rows")->AsArray();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_DOUBLE_EQ(rows[0].AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(rows[1].AsNumber(), 2.5);
  EXPECT_EQ(rows[2].AsString(), "x");
  EXPECT_FALSE(rows[3].AsBool());
  EXPECT_TRUE(rows[4].Find("k")->is_array());
  EXPECT_TRUE(rows[4].Find("k")->AsArray().empty());
}

TEST(JsonTest, DecodesEscapes) {
  const Result<JsonValue> parsed =
      JsonValue::Parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c\nd\teA");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\": }", "{\"a\": 1} trailing", "nul",
        "\"unterminated", "{\"a\" 1}", "[01a]", "\"bad\\escape\"",
        "\"ctrl\x01char\""}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(JsonValue::Parse(bad).ok());
  }
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, CountsAreExactNonNegativeIntegers) {
  const Result<JsonValue> parsed = JsonValue::Parse(
      R"({"zero": 0, "top": 9007199254740992, "past": 9007199254740994,
          "negative": -1, "half": 0.5, "text": "7"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetCount("zero").value(), 0u);
  EXPECT_EQ(parsed->GetCount("top").value(), uint64_t{1} << 53);
  // 2^53 + 2 is a double, but past the range where every count is one.
  for (const char* key : {"past", "negative", "half", "text", "absent"}) {
    const Result<uint64_t> count = parsed->GetCount(key);
    EXPECT_FALSE(count.ok()) << key;
    EXPECT_NE(count.status().message().find(key), std::string::npos)
        << count.status().message();
  }
}

TEST(JsonTest, TypedLookupsFailSoftly) {
  const Result<JsonValue> parsed = JsonValue::Parse(R"({"n": "text", "s": 1})");
  ASSERT_TRUE(parsed.ok());
  // Only an absent member is NotFound; one of another type is a type error
  // naming the member and the type it must have.
  for (const Status& status : {parsed->GetNumber("absent").status(),
                               parsed->GetString("absent").status(),
                               parsed->GetBool("absent").status()}) {
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  }
  for (const auto& [status, expected] :
       {std::pair{parsed->GetNumber("n").status(), "'n' must be a number"},
        std::pair{parsed->GetCount("n").status(), "'n' must be a number"},
        std::pair{parsed->GetString("s").status(), "'s' must be a string"},
        std::pair{parsed->GetBool("s").status(), "'s' must be a bool"}}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find(expected), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(parsed->Find("absent"), nullptr);
}

TEST(JsonTest, EscapeProducesParseableStrings) {
  const std::string hostile = "quote\" backslash\\ newline\n tab\t ctrl\x02";
  const std::string doc = "\"" + JsonEscape(hostile) + "\"";
  const Result<JsonValue> parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsString(), hostile);
}

TEST(JsonTest, RejectsDuplicateMembers) {
  // Keeping either copy would silently drop the other.
  for (const char* doc :
       {R"({"k": 1, "k": 2})", R"({"o": {"k": 1, "j": 0, "k": 1}})",
        R"([{"a": 1}, {"k": "x", "k": "x"}])"}) {
    const Result<JsonValue> parsed = JsonValue::Parse(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << doc;
    EXPECT_NE(parsed.status().message().find("duplicate member 'k'"),
              std::string::npos)
        << parsed.status().message();
  }
  // The same key in sibling objects is no duplicate.
  EXPECT_TRUE(JsonValue::Parse(R"([{"k": 1}, {"k": 2}])").ok());
}

}  // namespace
}  // namespace kgacc
