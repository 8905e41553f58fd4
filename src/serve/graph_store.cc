#include "serve/graph_store.h"

#include <limits.h>
#include <stdlib.h>

#include <utility>

#include "datasets/registry.h"
#include "util/string_util.h"

namespace kgacc::serve {

namespace {

bool HasSuffix(const std::string& name, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return name.size() > n && name.compare(name.size() - n, n, suffix) == 0;
}

bool IsTsvPath(const std::string& name) { return HasSuffix(name, ".tsv"); }

bool IsKgstorePath(const std::string& name) {
  return HasSuffix(name, ".kgstore");
}

bool IsPathName(const std::string& name) {
  return IsTsvPath(name) || IsKgstorePath(name);
}

/// Catalog key for `name`: path-like names collapse to their canonical
/// absolute path so load-graph of one file via different relative spellings
/// shares a single mapping. Built-in dataset names pass through; so do paths
/// realpath cannot resolve (the later open reports the real error).
std::string CanonicalName(const std::string& name) {
  if (!IsPathName(name)) return name;
  char resolved[PATH_MAX];
  if (::realpath(name.c_str(), resolved) == nullptr) return name;
  return resolved;
}

}  // namespace

Result<std::shared_ptr<const Dataset>> GraphStore::Load(
    const std::string& name, uint64_t seed) {
  if (name.empty()) return Status::InvalidArgument("empty graph name");
  const std::string key = CanonicalName(name);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = graphs_.find(key);
    if (it != graphs_.end()) return it->second;
  }
  // Build outside the lock: dataset construction is the expensive part and
  // concurrent loads of *different* graphs should not serialize. A racing
  // duplicate load of the same name is resolved below (first one wins).
  Result<Dataset> made = IsKgstorePath(name) ? LoadKgstoreDataset(key)
                         : IsTsvPath(name)   ? LoadTsvDataset(key)
                                             : MakeDatasetByName(name, seed);
  if (!made.ok()) return made.status();
  auto built = std::make_shared<const Dataset>(std::move(made).value());
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = graphs_.emplace(key, std::move(built));
  return it->second;
}

Result<std::shared_ptr<const Dataset>> GraphStore::Get(
    const std::string& name) const {
  const std::string key = CanonicalName(name);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    std::string known;
    for (const auto& [key, dataset] : graphs_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    return Status::NotFound(StrFormat(
        "graph '%s' not loaded (loaded: %s)", name.c_str(),
        known.empty() ? "none" : known.c_str()));
  }
  return it->second;
}

void GraphStore::Put(const std::string& name,
                     std::shared_ptr<const Dataset> dataset) {
  const std::string key = CanonicalName(name);
  std::lock_guard<std::mutex> lock(mutex_);
  graphs_[key] = std::move(dataset);
}

std::vector<std::string> GraphStore::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, dataset] : graphs_) names.push_back(name);
  return names;
}

}  // namespace kgacc::serve
