#include "kg/store/store_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace kgacc {
namespace {

// Per-section write buffer: large enough to amortize pwrite syscalls, small
// enough that nine of them stay negligible next to the page cache.
constexpr uint64_t kFlushBytes = 1 << 20;

Status PwriteAll(int fd, const char* data, uint64_t size, uint64_t offset,
                 const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("kgstore write failed for " + path + ": " +
                             std::strerror(errno));
    }
    data += n;
    size -= static_cast<uint64_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<StoreWriter> StoreWriter::Create(const std::string& path,
                                        uint64_t num_clusters,
                                        uint64_t num_triples,
                                        const Options& options) {
  // Build into a sibling temp file and rename it over `path` in Finish: a
  // process that has the old store mapped keeps reading the old inode
  // instead of pages truncated under its mapping.
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp_path =
      path + ".tmp-" + std::to_string(::getpid()) + "-" +
      std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed));
  const int fd =
      ::open(temp_path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create kgstore file " + temp_path + ": " +
                           std::strerror(errno));
  }

  StoreWriter writer;
  writer.path_ = path;
  writer.temp_path_ = temp_path;
  writer.fd_ = fd;
  writer.with_labels_ = options.with_labels;
  writer.num_clusters_ = num_clusters;
  writer.num_triples_ = num_triples;

  // The fixed sections are sized entirely by the declared counts, so their
  // offsets are laid out now; the symbol sections (sizes unknown until the
  // table is handed to Finish) are appended at the end.
  const uint64_t kind_words = store::BitsetWords(num_triples);
  const uint64_t fixed_sizes[store::kNumSections] = {
      (num_clusters + 1) * sizeof(uint64_t),              // kClusterOffsets
      num_clusters * sizeof(uint32_t),                    // kClusterSubjects
      num_triples * sizeof(uint32_t),                     // kSubjects
      num_triples * sizeof(uint32_t),                     // kPredicates
      num_triples * sizeof(uint32_t),                     // kObjects
      kind_words * sizeof(uint64_t),                      // kObjectKinds
      options.with_labels ? kind_words * sizeof(uint64_t) : 0,  // kLabels
      0,                                                  // kSymbolOffsets
      0,                                                  // kSymbolBlob
  };
  uint64_t offset = store::AlignUp(sizeof(store::Header), store::kSectionAlign);
  for (uint32_t s = 0; s < store::kNumSections; ++s) {
    if (fixed_sizes[s] == 0) continue;
    writer.streams_[s].begin = offset;
    offset = store::AlignUp(offset + fixed_sizes[s], store::kSectionAlign);
  }
  return writer;
}

Status StoreWriter::Append(store::Section section, const void* data,
                           uint64_t size) {
  SectionStream& stream = streams_[section];
  stream.checksum = store::Fnv1a(data, size, stream.checksum);
  const char* bytes = static_cast<const char*>(data);
  stream.buffer.insert(stream.buffer.end(), bytes, bytes + size);
  stream.cursor += size;
  if (stream.buffer.size() >= kFlushBytes) {
    return FlushSection(section);
  }
  return Status::OK();
}

Status StoreWriter::FlushSection(store::Section section) {
  SectionStream& stream = streams_[section];
  if (stream.buffer.empty()) return Status::OK();
  const uint64_t flushed_end = stream.cursor - stream.buffer.size();
  KGACC_RETURN_IF_ERROR(PwriteAll(fd_, stream.buffer.data(),
                                  stream.buffer.size(),
                                  stream.begin + flushed_end, path_));
  stream.buffer.clear();
  return Status::OK();
}

Status StoreWriter::AppendBit(store::Section section, uint64_t& word,
                              bool bit) {
  const uint64_t pos = triples_added_ % 64;
  if (bit) word |= uint64_t{1} << pos;
  if (pos == 63) return FlushBitWord(section, word);
  return Status::OK();
}

Status StoreWriter::FlushBitWord(store::Section section, uint64_t& word) {
  const uint64_t value = word;
  word = 0;
  return Append(section, &value, sizeof(value));
}

Status StoreWriter::BeginCluster(EntityId subject) {
  if (finished_) {
    return Status::FailedPrecondition("StoreWriter already finished");
  }
  if (clusters_begun_ == num_clusters_) {
    return Status::OutOfRange("BeginCluster beyond declared " +
                              std::to_string(num_clusters_) + " clusters");
  }
  KGACC_RETURN_IF_ERROR(
      Append(store::kClusterOffsets, &triples_added_, sizeof(uint64_t)));
  KGACC_RETURN_IF_ERROR(
      Append(store::kClusterSubjects, &subject, sizeof(uint32_t)));
  current_subject_ = subject;
  ++clusters_begun_;
  return Status::OK();
}

Status StoreWriter::AddTriple(PredicateId predicate, ObjectRef object,
                              bool correct) {
  if (clusters_begun_ == 0) {
    return Status::FailedPrecondition("AddTriple before BeginCluster");
  }
  if (triples_added_ == num_triples_) {
    return Status::OutOfRange("AddTriple beyond declared " +
                              std::to_string(num_triples_) + " triples");
  }
  KGACC_RETURN_IF_ERROR(
      Append(store::kSubjects, &current_subject_, sizeof(uint32_t)));
  KGACC_RETURN_IF_ERROR(
      Append(store::kPredicates, &predicate, sizeof(uint32_t)));
  KGACC_RETURN_IF_ERROR(Append(store::kObjects, &object.id, sizeof(uint32_t)));
  KGACC_RETURN_IF_ERROR(AppendBit(store::kObjectKinds, kind_word_,
                                  object.kind == ObjectKind::kLiteral));
  if (with_labels_) {
    KGACC_RETURN_IF_ERROR(AppendBit(store::kLabels, label_word_, correct));
  }
  ++triples_added_;
  return Status::OK();
}

Status StoreWriter::Finish(const SymbolTable* symbols) {
  if (finished_) {
    return Status::FailedPrecondition("StoreWriter already finished");
  }
  if (clusters_begun_ != num_clusters_) {
    return Status::FailedPrecondition(
        "Finish after " + std::to_string(clusters_begun_) + " of " +
        std::to_string(num_clusters_) + " declared clusters");
  }
  if (triples_added_ != num_triples_) {
    return Status::FailedPrecondition(
        "Finish after " + std::to_string(triples_added_) + " of " +
        std::to_string(num_triples_) + " declared triples");
  }
  KGACC_RETURN_IF_ERROR(
      Append(store::kClusterOffsets, &num_triples_, sizeof(uint64_t)));
  if (num_triples_ % 64 != 0) {
    KGACC_RETURN_IF_ERROR(FlushBitWord(store::kObjectKinds, kind_word_));
    if (with_labels_) {
      KGACC_RETURN_IF_ERROR(FlushBitWord(store::kLabels, label_word_));
    }
  }

  if (symbols != nullptr && !symbols->empty()) {
    // Symbol sections trail the fixed layout: offsets first, blob after.
    uint64_t end = store::AlignUp(sizeof(store::Header), store::kSectionAlign);
    for (uint32_t s = 0; s < store::kNumSections; ++s) {
      if (streams_[s].cursor > 0) {
        end = std::max(end, streams_[s].begin + streams_[s].cursor);
      }
    }
    streams_[store::kSymbolOffsets].begin =
        store::AlignUp(end, store::kSectionAlign);
    uint64_t blob_bytes = 0;
    for (uint32_t id = 0; id < symbols->size(); ++id) {
      KGACC_RETURN_IF_ERROR(
          Append(store::kSymbolOffsets, &blob_bytes, sizeof(uint64_t)));
      blob_bytes += symbols->Name(id).size();
    }
    KGACC_RETURN_IF_ERROR(
        Append(store::kSymbolOffsets, &blob_bytes, sizeof(uint64_t)));
    streams_[store::kSymbolBlob].begin =
        store::AlignUp(streams_[store::kSymbolOffsets].begin +
                           streams_[store::kSymbolOffsets].cursor,
                       store::kSectionAlign);
    for (uint32_t id = 0; id < symbols->size(); ++id) {
      const std::string& name = symbols->Name(id);
      KGACC_RETURN_IF_ERROR(
          Append(store::kSymbolBlob, name.data(), name.size()));
    }
  }

  for (uint32_t s = 0; s < store::kNumSections; ++s) {
    KGACC_RETURN_IF_ERROR(FlushSection(static_cast<store::Section>(s)));
  }

  store::Header header;
  std::memcpy(header.magic, store::kMagic, sizeof(store::kMagic));
  header.version = store::kFormatVersion;
  header.flags = (with_labels_ ? store::kHasLabels : 0) |
                 (symbols != nullptr && !symbols->empty() ? store::kHasSymbols
                                                          : 0);
  header.num_clusters = num_clusters_;
  header.num_triples = num_triples_;
  header.num_symbols =
      symbols != nullptr && !symbols->empty() ? symbols->size() : 0;
  for (uint32_t s = 0; s < store::kNumSections; ++s) {
    if (streams_[s].cursor == 0) continue;
    header.sections[s].offset = streams_[s].begin;
    header.sections[s].size_bytes = streams_[s].cursor;
    header.sections[s].checksum = streams_[s].checksum;
  }
  header.header_checksum = store::HeaderChecksum(header);
  KGACC_RETURN_IF_ERROR(PwriteAll(
      fd_, reinterpret_cast<const char*>(&header), sizeof(header), 0, path_));
  if (::fsync(fd_) != 0) {
    return Status::IOError("kgstore fsync failed for " + temp_path_ + ": " +
                           std::strerror(errno));
  }
  ::close(std::exchange(fd_, -1));
  if (::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    return Status::IOError("cannot rename " + temp_path_ + " to " + path_ +
                           ": " + std::strerror(errno));
  }
  temp_path_.clear();

  obs::MetricsRegistry::Global()
      .GetCounter("kg.store.triples_written")
      ->Add(triples_added_);
  finished_ = true;
  return Status::OK();
}

void StoreWriter::MoveFrom(StoreWriter& other) noexcept {
  path_ = std::move(other.path_);
  temp_path_ = std::exchange(other.temp_path_, std::string());
  fd_ = std::exchange(other.fd_, -1);
  with_labels_ = other.with_labels_;
  finished_ = other.finished_;
  num_clusters_ = other.num_clusters_;
  num_triples_ = other.num_triples_;
  clusters_begun_ = other.clusters_begun_;
  triples_added_ = other.triples_added_;
  current_subject_ = other.current_subject_;
  kind_word_ = other.kind_word_;
  label_word_ = other.label_word_;
  for (uint32_t s = 0; s < store::kNumSections; ++s) {
    streams_[s] = std::move(other.streams_[s]);
  }
}

void StoreWriter::Abandon() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  if (!temp_path_.empty()) {
    ::unlink(temp_path_.c_str());
    temp_path_.clear();
  }
}

StoreWriter::StoreWriter(StoreWriter&& other) noexcept { MoveFrom(other); }

StoreWriter& StoreWriter::operator=(StoreWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    MoveFrom(other);
  }
  return *this;
}

StoreWriter::~StoreWriter() { Abandon(); }

Status WriteGraphStore(const std::string& path, const TripleView& view,
                       const SymbolTable* symbols, const TruthOracle* labels) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::ScopedSpan span("kg.store.write",
                       registry.GetHistogram("kg.store.write_seconds"));
  StoreWriter::Options options;
  options.with_labels = labels != nullptr;
  KGACC_ASSIGN_OR_RETURN(
      StoreWriter writer,
      StoreWriter::Create(path, view.NumClusters(), view.TotalTriples(),
                          options));
  for (uint64_t c = 0; c < view.NumClusters(); ++c) {
    KGACC_RETURN_IF_ERROR(writer.BeginCluster(view.ClusterSubject(c)));
    const uint64_t size = view.ClusterSize(c);
    for (uint64_t offset = 0; offset < size; ++offset) {
      const TripleRef ref{c, offset};
      const Triple t = view.TripleAt(ref);
      KGACC_RETURN_IF_ERROR(writer.AddTriple(
          t.predicate, t.object, labels != nullptr && labels->IsCorrect(ref)));
    }
  }
  return writer.Finish(symbols);
}

}  // namespace kgacc
