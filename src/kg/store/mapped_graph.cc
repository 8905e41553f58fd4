#include "kg/store/mapped_graph.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace kgacc {
namespace {

using store::Header;
using store::Section;
using store::SectionDesc;

/// Byte size each section must have given the header counts; sections not
/// present under `flags` must be zero-sized. kSymbolBlob has no fixed size
/// (returns the descriptor's own size so the bounds check still applies).
uint64_t ExpectedSectionBytes(const Header& h, Section s) {
  const uint64_t kind_words = store::BitsetWords(h.num_triples);
  switch (s) {
    case store::kClusterOffsets:
      return (h.num_clusters + 1) * sizeof(uint64_t);
    case store::kClusterSubjects:
      return h.num_clusters * sizeof(uint32_t);
    case store::kSubjects:
    case store::kPredicates:
    case store::kObjects:
      return h.num_triples * sizeof(uint32_t);
    case store::kObjectKinds:
      return kind_words * sizeof(uint64_t);
    case store::kLabels:
      return (h.flags & store::kHasLabels) ? kind_words * sizeof(uint64_t) : 0;
    case store::kSymbolOffsets:
      return (h.flags & store::kHasSymbols)
                 ? (h.num_symbols + 1) * sizeof(uint64_t)
                 : 0;
    case store::kSymbolBlob:
      return (h.flags & store::kHasSymbols) ? h.sections[s].size_bytes : 0;
    default:
      return 0;
  }
}

/// O(1) structural validation of the header against the mapped size:
/// magic, version, checksum, known flags, counts whose sections fit the
/// file, and that every section lies inside the file (overflow-safe) at
/// 8-byte alignment with the size its counts demand.
Status ValidateHeader(const Header& h, uint64_t file_bytes,
                      const std::string& path) {
  if (!store::MagicMatches(h)) {
    return Status::InvalidArgument("not a kgacc-kgstore file: " + path);
  }
  if (h.version != store::kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported kgstore version " + std::to_string(h.version) + ": " +
        path);
  }
  if (store::HeaderChecksum(h) != h.header_checksum) {
    return Status::InvalidArgument("kgstore header checksum mismatch: " +
                                   path);
  }
  if ((h.flags & ~(store::kHasLabels | store::kHasSymbols)) != 0) {
    return Status::InvalidArgument("unknown kgstore flags " +
                                   std::to_string(h.flags) + ": " + path);
  }
  // A count whose section cannot fit in the file is refused before a size
  // is computed from it: count * width could wrap around 2^64 to the size
  // the descriptor states.
  if (h.num_clusters >= file_bytes / sizeof(uint64_t) ||
      h.num_triples > file_bytes / sizeof(uint32_t) ||
      h.num_symbols >= file_bytes / sizeof(uint64_t)) {
    return Status::InvalidArgument(
        "kgstore header counts exceed the file size: " + path);
  }
  for (uint32_t s = 0; s < store::kNumSections; ++s) {
    const SectionDesc& d = h.sections[s];
    const uint64_t expected =
        ExpectedSectionBytes(h, static_cast<Section>(s));
    if (d.size_bytes != expected) {
      return Status::InvalidArgument(
          "kgstore section " + std::to_string(s) + " has " +
          std::to_string(d.size_bytes) + " bytes, expected " +
          std::to_string(expected) + ": " + path);
    }
    if (d.size_bytes == 0) continue;
    if (d.size_bytes > file_bytes || d.offset > file_bytes - d.size_bytes) {
      return Status::OutOfRange(
          "kgstore section " + std::to_string(s) +
          " extends past end of file: " + path);
    }
    if (d.offset % sizeof(uint64_t) != 0) {
      return Status::InvalidArgument(
          "kgstore section " + std::to_string(s) + " is misaligned: " + path);
    }
  }
  return Status::OK();
}

}  // namespace

const void* MappedGraph::SectionPtr(store::Section section) const {
  return static_cast<const char*>(mapped_) + header_.sections[section].offset;
}

void MappedGraph::BindSections() {
  cluster_offsets_ =
      static_cast<const uint64_t*>(SectionPtr(store::kClusterOffsets));
  cluster_subjects_ =
      static_cast<const uint32_t*>(SectionPtr(store::kClusterSubjects));
  subjects_ = static_cast<const uint32_t*>(SectionPtr(store::kSubjects));
  predicates_ = static_cast<const uint32_t*>(SectionPtr(store::kPredicates));
  objects_ = static_cast<const uint32_t*>(SectionPtr(store::kObjects));
  object_kinds_ =
      static_cast<const uint64_t*>(SectionPtr(store::kObjectKinds));
  labels_ = has_labels()
                ? static_cast<const uint64_t*>(SectionPtr(store::kLabels))
                : nullptr;
  if (has_symbols()) {
    symbol_offsets_ =
        static_cast<const uint64_t*>(SectionPtr(store::kSymbolOffsets));
    symbol_blob_ = static_cast<const char*>(SectionPtr(store::kSymbolBlob));
  } else {
    symbol_offsets_ = nullptr;
    symbol_blob_ = nullptr;
  }
}

Result<MappedGraph> MappedGraph::Open(const std::string& path,
                                      const OpenOptions& options) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::ScopedSpan span("kg.store.open",
                       registry.GetHistogram("kg.store.open_seconds"));

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open kgstore file " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat kgstore file " + path + ": " +
                           std::strerror(err));
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < sizeof(Header)) {
    ::close(fd);
    return Status::InvalidArgument(
        "kgstore file truncated before header end (" +
        std::to_string(file_bytes) + " bytes): " + path);
  }
  void* mapped = ::mmap(nullptr, file_bytes, PROT_READ, MAP_SHARED, fd, 0);
  if (mapped == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot mmap kgstore file " + path + ": " +
                           std::strerror(err));
  }

  MappedGraph graph;
  graph.path_ = path;
  graph.fd_ = fd;
  graph.mapped_ = mapped;
  graph.mapped_bytes_ = file_bytes;
  std::memcpy(&graph.header_, mapped, sizeof(Header));

  Status status = ValidateHeader(graph.header_, file_bytes, path);
  if (!status.ok()) return status;  // graph's destructor unmaps.
  graph.BindSections();

  // Two O(1) endpoint reads pin the prefix-sum index to the header counts;
  // everything in between is Verify()'s job.
  if (graph.cluster_offsets_[0] != 0 ||
      graph.cluster_offsets_[graph.header_.num_clusters] !=
          graph.header_.num_triples) {
    return Status::InvalidArgument(
        "kgstore cluster index endpoints disagree with header counts: " +
        path);
  }

  if (options.verify_checksums) {
    KGACC_RETURN_IF_ERROR(graph.Verify());
  }

  registry.GetCounter("kg.store.opens")->Add(1);
  registry.GetCounter("kg.store.bytes_mapped")->Add(file_bytes);
  return graph;
}

Status MappedGraph::Verify() const {
  for (uint32_t s = 0; s < store::kNumSections; ++s) {
    const SectionDesc& d = header_.sections[s];
    if (d.size_bytes == 0) continue;
    const uint64_t actual = store::Fnv1a(
        static_cast<const char*>(mapped_) + d.offset, d.size_bytes);
    if (actual != d.checksum) {
      return Status::InvalidArgument("kgstore section " + std::to_string(s) +
                                     " checksum mismatch: " + path_);
    }
  }
  for (uint64_t c = 0; c < header_.num_clusters; ++c) {
    if (cluster_offsets_[c] > cluster_offsets_[c + 1]) {
      return Status::InvalidArgument(
          "kgstore cluster offsets not monotone at cluster " +
          std::to_string(c) + ": " + path_);
    }
  }
  // Bits past num_triples in the bitset tail words must be zero so that
  // whole-section checksums stay canonical.
  const uint64_t tail_bits = header_.num_triples % 64;
  if (tail_bits != 0) {
    const uint64_t last = store::BitsetWords(header_.num_triples) - 1;
    const uint64_t mask = ~((uint64_t{1} << tail_bits) - 1);
    if ((object_kinds_[last] & mask) != 0 ||
        (labels_ != nullptr && (labels_[last] & mask) != 0)) {
      return Status::InvalidArgument(
          "kgstore bitset tail padding is not zero: " + path_);
    }
  }
  if (has_symbols()) {
    for (uint64_t i = 0; i < header_.num_symbols; ++i) {
      if (symbol_offsets_[i] > symbol_offsets_[i + 1]) {
        return Status::InvalidArgument(
            "kgstore symbol offsets not monotone: " + path_);
      }
    }
    if (symbol_offsets_[0] != 0 ||
        symbol_offsets_[header_.num_symbols] !=
            header_.sections[store::kSymbolBlob].size_bytes) {
      return Status::InvalidArgument(
          "kgstore symbol offsets disagree with blob size: " + path_);
    }
  }
  return Status::OK();
}

void MappedGraph::MoveFrom(MappedGraph& other) noexcept {
  path_ = std::move(other.path_);
  fd_ = std::exchange(other.fd_, -1);
  mapped_ = std::exchange(other.mapped_, nullptr);
  mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
  header_ = other.header_;
  cluster_offsets_ = other.cluster_offsets_;
  cluster_subjects_ = other.cluster_subjects_;
  subjects_ = other.subjects_;
  predicates_ = other.predicates_;
  objects_ = other.objects_;
  object_kinds_ = other.object_kinds_;
  labels_ = other.labels_;
  symbol_offsets_ = other.symbol_offsets_;
  symbol_blob_ = other.symbol_blob_;
}

MappedGraph::MappedGraph(MappedGraph&& other) noexcept { MoveFrom(other); }

MappedGraph& MappedGraph::operator=(MappedGraph&& other) noexcept {
  if (this != &other) {
    Unmap();
    MoveFrom(other);
  }
  return *this;
}

void MappedGraph::Unmap() {
  if (mapped_ != nullptr) {
    ::munmap(const_cast<void*>(mapped_), mapped_bytes_);
    mapped_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

MappedGraph::~MappedGraph() { Unmap(); }

}  // namespace kgacc
