#ifndef KPJ_UTIL_MMAP_FILE_H_
#define KPJ_UTIL_MMAP_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace kpj {

/// Section-directory container for the v4 zero-copy graph format.
///
/// A v4 file is a fixed 32-byte header, a directory of fixed-width
/// entries, then page-aligned payload sections. Everything is
/// little-endian with no pointers, so the mapped bytes are directly
/// usable as the in-memory arrays. The *meaning* of section kinds
/// belongs to the serialization layer (src/graph/serialize.cc); this
/// utility only knows offsets, sizes, and checksums.
///
/// Layout:
///   [0)   FileHeader (32 bytes)
///   [32)  SectionEntry[section_count] (40 bytes each)
///   [...] payload sections, each starting at a 4096-aligned offset,
///         zero-padded up to the next page boundary.
///
/// Integrity: the header checksum (FNV-1a over the header with the
/// checksum field zeroed, then all directory bytes) is ALWAYS verified
/// on open. Per-section payload checksums are verified by default and
/// can be skipped for trusted files (MappedLoadOptions.verify_checksums
/// = false) — skipping keeps open() O(1): no payload page is touched.

constexpr uint64_t kSectionAlignment = 4096;

struct FileHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint64_t file_bytes = 0;
  uint64_t header_checksum = 0;
};
static_assert(sizeof(FileHeader) == 32, "v4 header must be 32 bytes");

struct SectionEntry {
  uint32_t kind = 0;       // serialize.cc's SectionKind enum
  uint32_t elem_size = 0;  // bytes per element
  uint64_t offset = 0;     // from file start; 4096-aligned
  uint64_t bytes = 0;      // payload bytes == count * elem_size
  uint64_t count = 0;      // element count
  uint64_t checksum = 0;   // FNV-1a over the payload bytes
};
static_assert(sizeof(SectionEntry) == 40, "v4 directory entry is 40 bytes");

/// FNV-1a 64-bit over a byte range (the standard constants, so a file's
/// section sums are reproducible everywhere).
uint64_t Fnv1a64(const void* data, size_t bytes,
                 uint64_t seed = 14695981039346656037ull);

struct MappedLoadOptions {
  /// Verify each section's payload checksum at open time. Costs a full
  /// sequential read of the file (still faster than deserializing);
  /// turn off for trusted local files to make open O(1).
  bool verify_checksums = true;
};

/// RAII read-only mapping of a whole file. Move-only.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  static Result<MappedFile> Open(const std::string& path);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::span<const uint8_t> bytes() const { return {data_, size_}; }

  /// Forwarded to madvise(2); best-effort, errors ignored.
  void AdviseSequential() const;
  void AdviseRandom() const;
  void AdviseWillNeed() const;

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// A verified, opened v4 file. Shared (via shared_ptr) by everything
/// that borrows spans out of it — typically pinned by KpjInstance so
/// the mapping outlives every borrowed ArrayRef.
class MappedGraphFile {
 public:
  /// Maps kind ids to human-readable names for error messages; the
  /// serialization layer passes its own table. May be null.
  using KindNameFn = std::function<std::string(uint32_t kind)>;

  /// Opens + maps + validates header/directory (and, unless opted out,
  /// every section checksum). `expected_magic`/`expected_version` come
  /// from the caller's format definition.
  static Result<std::shared_ptr<MappedGraphFile>> Open(
      const std::string& path, uint64_t expected_magic,
      uint32_t expected_version, const MappedLoadOptions& options = {},
      KindNameFn kind_name = nullptr);

  const FileHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  size_t mapped_bytes() const { return file_.size(); }
  bool checksums_verified() const { return checksums_verified_; }

  /// nullptr if the file has no section of this kind.
  const SectionEntry* FindSection(uint32_t kind) const;

  /// All section entries, in directory order (tools, tests, `info`).
  const std::vector<SectionEntry>& directory() const { return directory_; }

  /// Typed span over a section's payload. Fails if the section is
  /// missing or its elem_size doesn't match sizeof(T).
  template <typename T>
  Result<std::span<const T>> SectionAs(uint32_t kind) const {
    const SectionEntry* e = FindSection(kind);
    if (e == nullptr) {
      return Status::Corruption("v4 file missing section " + KindName(kind));
    }
    if (e->elem_size != sizeof(T)) {
      return Status::Corruption("v4 section " + KindName(kind) +
                                ": element size mismatch (file " +
                                std::to_string(e->elem_size) + ", expected " +
                                std::to_string(sizeof(T)) + ")");
    }
    const T* ptr = reinterpret_cast<const T*>(file_.data() + e->offset);
    return std::span<const T>(ptr, static_cast<size_t>(e->count));
  }

  std::string KindName(uint32_t kind) const;

 private:
  MappedGraphFile() = default;

  MappedFile file_;
  FileHeader header_;
  std::vector<SectionEntry> directory_;
  std::string path_;
  KindNameFn kind_name_;
  bool checksums_verified_ = false;
};

/// Builds a v4 file: buffer section descriptors (spans are caller-owned
/// and must stay valid until WriteTo), then write header + directory +
/// page-aligned payloads, computing checksums along the way.
class SectionFileWriter {
 public:
  SectionFileWriter(uint64_t magic, uint32_t version)
      : magic_(magic), version_(version) {}

  template <typename T>
  void AddSection(uint32_t kind, std::span<const T> payload) {
    AddSectionBytes(kind, sizeof(T), payload.data(),
                    payload.size() * sizeof(T), payload.size());
  }

  void AddSectionBytes(uint32_t kind, uint32_t elem_size, const void* data,
                       uint64_t bytes, uint64_t count);

  Status WriteTo(const std::string& path) const;

 private:
  struct Pending {
    SectionEntry entry;
    const void* data;
  };
  uint64_t magic_;
  uint32_t version_;
  std::vector<Pending> sections_;
};

}  // namespace kpj

#endif  // KPJ_UTIL_MMAP_FILE_H_
