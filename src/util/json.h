#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace kgacc {

/// A parsed JSON document node. Minimal by design: just enough to read back
/// the machine-readable artifacts this library writes itself (campaign
/// traces, bench outputs) — objects, arrays, strings, finite numbers, bools
/// and null. Not a general-purpose JSON library: no streaming, no comments,
/// no \uXXXX surrogate pairs (escapes decode to '?'), numbers parse as
/// double.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// std::map keeps keys ordered; Parse refuses a repeated key.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}

  /// Parses one JSON document; trailing non-whitespace is an error.
  static Result<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; the value must hold the matching type (aborts in debug
  /// builds otherwise, like Result::value()).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience typed lookups returning errors instead of aborting, for
  /// validating externally supplied documents: NotFound when the member is
  /// absent, InvalidArgument naming the member and the expected type when
  /// it holds another type.
  Result<double> GetNumber(const std::string& key) const;
  /// A number member holding a non-negative integer of at most 2^53, the
  /// range in which a double holds every integer exactly: larger, negative
  /// or fractional values are an error, never a rounded or wrapped count.
  Result<uint64_t> GetCount(const std::string& key) const;
  Result<std::string> GetString(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;    // shared to keep JsonValue copyable/cheap.
  std::shared_ptr<Object> object_;
};

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included). Control characters become \u00XX.
std::string JsonEscape(std::string_view text);

/// Streaming JSON emitter for the machine-readable artifacts this library
/// writes (metrics snapshots, bench outputs): handles comma placement and
/// string escaping, writes doubles as %.17g so JsonValue::Parse round-trips
/// them bit-exactly. The caller is responsible for well-formed nesting
/// (debug-checked); there is no pretty-printing beyond one space after ':'.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by exactly one value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// The document built so far; call once, after the root value closed.
  std::string TakeString() { return std::move(out_); }
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  /// One entry per open container: true while the next element needs a
  /// leading comma.
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

}  // namespace kgacc
