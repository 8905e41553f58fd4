#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"

namespace kgacc {

bool JsonValue::AsBool() const {
  KGACC_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsNumber() const {
  KGACC_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::AsString() const {
  KGACC_CHECK(is_string());
  return string_;
}

const JsonValue::Array& JsonValue::AsArray() const {
  KGACC_CHECK(is_array());
  return *array_;
}

const JsonValue::Object& JsonValue::AsObject() const {
  KGACC_CHECK(is_object());
  return *object_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

namespace {

/// Member `key` of `object` when it holds a `type` value: NotFound only when
/// the member is absent; a member of another type is an InvalidArgument
/// naming the member and the `expected` type.
Result<const JsonValue*> TypedMember(const JsonValue& object,
                                     const std::string& key,
                                     JsonValue::Type type,
                                     const char* expected) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) {
    return Status::NotFound(
        StrFormat("missing %s field '%s'", expected, key.c_str()));
  }
  if (member->type() != type) {
    return Status::InvalidArgument(
        StrFormat("field '%s' must be a %s", key.c_str(), expected));
  }
  return member;
}

}  // namespace

Result<double> JsonValue::GetNumber(const std::string& key) const {
  KGACC_ASSIGN_OR_RETURN(const JsonValue* member,
                         TypedMember(*this, key, Type::kNumber, "number"));
  return member->AsNumber();
}

Result<uint64_t> JsonValue::GetCount(const std::string& key) const {
  KGACC_ASSIGN_OR_RETURN(const double number, GetNumber(key));
  constexpr double kMaxExactCount = 9007199254740992.0;  // 2^53.
  if (!(number >= 0.0) || number > kMaxExactCount ||
      number != std::floor(number)) {
    return Status::InvalidArgument(StrFormat(
        "field '%s' is not a valid count: %.17g", key.c_str(), number));
  }
  return static_cast<uint64_t>(number);
}

Result<std::string> JsonValue::GetString(const std::string& key) const {
  KGACC_ASSIGN_OR_RETURN(const JsonValue* member,
                         TypedMember(*this, key, Type::kString, "string"));
  return member->AsString();
}

Result<bool> JsonValue::GetBool(const std::string& key) const {
  KGACC_ASSIGN_OR_RETURN(const JsonValue* member,
                         TypedMember(*this, key, Type::kBool, "bool"));
  return member->AsBool();
}

/// Recursive-descent parser over the in-memory document text.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    KGACC_ASSIGN_OR_RETURN(JsonValue value, ParseValue(/*depth=*/0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %llu: %s",
                  static_cast<unsigned long long>(pos_), message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    JsonValue value;
    if (ConsumeLiteral("true")) {
      value.type_ = JsonValue::Type::kBool;
      value.bool_ = true;
      return value;
    }
    if (ConsumeLiteral("false")) {
      value.type_ = JsonValue::Type::kBool;
      value.bool_ = false;
      return value;
    }
    if (ConsumeLiteral("null")) return value;
    return Error("unexpected character");
  }

  Result<JsonValue> ParseObject(int depth) {
    KGACC_CHECK(Consume('{'));
    JsonValue value;
    value.type_ = JsonValue::Type::kObject;
    value.object_ = std::make_shared<JsonValue::Object>();
    SkipWhitespace();
    if (Consume('}')) return value;
    while (true) {
      SkipWhitespace();
      KGACC_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      KGACC_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      // A repeated member would silently win over the first.
      if (!value.object_->emplace(key.string_, std::move(member)).second) {
        return Error(
            StrFormat("duplicate member '%s'", key.string_.c_str()));
      }
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    KGACC_CHECK(Consume('['));
    JsonValue value;
    value.type_ = JsonValue::Type::kArray;
    value.array_ = std::make_shared<JsonValue::Array>();
    SkipWhitespace();
    if (Consume(']')) return value;
    while (true) {
      KGACC_ASSIGN_OR_RETURN(JsonValue element, ParseValue(depth + 1));
      value.array_->push_back(std::move(element));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    if (!Consume('"')) return Error("expected string");
    JsonValue value;
    value.type_ = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        value.string_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': value.string_.push_back('"'); break;
        case '\\': value.string_.push_back('\\'); break;
        case '/': value.string_.push_back('/'); break;
        case 'b': value.string_.push_back('\b'); break;
        case 'f': value.string_.push_back('\f'); break;
        case 'n': value.string_.push_back('\n'); break;
        case 'r': value.string_.push_back('\r'); break;
        case 't': value.string_.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          uint32_t code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<uint32_t>(h - 'A' + 10);
            else return Error("invalid \\u escape");
          }
          // ASCII decodes exactly; anything wider is out of scope here.
          value.string_.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double parsed = 0.0;
    if (!ParseDouble(text_.substr(start, pos_ - start), &parsed)) {
      return Error("malformed number");
    }
    JsonValue value;
    value.type_ = JsonValue::Type::kNumber;
    value.number_ = parsed;
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ", ";
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  KGACC_DCHECK(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  KGACC_DCHECK(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  KGACC_DCHECK(!after_key_);
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  out_ += StrFormat("%.17g", value);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace kgacc
