#include "util/flags.h"

#include <algorithm>

#include "util/string_util.h"

namespace kgacc {

std::string FlagParser::Normalize(std::string name) {
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      parser.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    const size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      parser.values_[Normalize(std::string(body.substr(0, eq)))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      parser.values_[Normalize(std::string(body))] = argv[++i];
    } else {
      parser.values_[Normalize(std::string(body))] = "true";
    }
  }
  return parser;
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(Normalize(name)) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = values_.find(Normalize(name));
  return it == values_.end() ? fallback : it->second;
}

Result<uint64_t> FlagParser::GetUint64(const std::string& name,
                                       uint64_t fallback) const {
  auto it = values_.find(Normalize(name));
  if (it == values_.end()) return fallback;
  uint64_t value = 0;
  if (!ParseUint64(it->second, &value)) {
    return Status::InvalidArgument(
        StrFormat("--%s expects an unsigned integer, got '%s'", name.c_str(),
                  it->second.c_str()));
  }
  return value;
}

Result<double> FlagParser::GetDouble(const std::string& name,
                                     double fallback) const {
  auto it = values_.find(Normalize(name));
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (!ParseDouble(it->second, &value)) {
    return Status::InvalidArgument(StrFormat(
        "--%s expects a number, got '%s'", name.c_str(), it->second.c_str()));
  }
  return value;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(Normalize(name));
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

Status FlagParser::Validate(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::none_of(known.begin(), known.end(), [&](const std::string& k) {
          return Normalize(k) == name;
        })) {
      return Status::InvalidArgument(StrFormat("unknown flag --%s", name.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace kgacc
