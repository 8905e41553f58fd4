#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace kgacc {

/// Minimal command-line flag parser for the tools/ binaries.
///
/// Accepted syntax: `--name=value`, `--name value`, and bare `--name` for
/// boolean flags. Everything not starting with `--` is a positional
/// argument. Unknown flags are rejected by Validate().
///
/// Flag names are spelled once: `_` and `-` are the same character in a
/// name, when parsing and in every lookup, so `--batch_units` and
/// `--batch-units` are one flag (the last value given wins).
class FlagParser {
 public:
  /// Parses argv; returns an error on malformed input (e.g. missing value).
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults; return an error when the flag is present
  /// but malformed.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  Result<uint64_t> GetUint64(const std::string& name, uint64_t fallback) const;
  Result<double> GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Errors when any parsed flag is not in `known` (catches typos).
  Status Validate(const std::vector<std::string>& known) const;

 private:
  /// `name` with every `_` spelled `-`.
  static std::string Normalize(std::string name);

  std::map<std::string, std::string> values_;  ///< keyed by Normalize(name).
  std::vector<std::string> positional_;
};

}  // namespace kgacc
