#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace kpj {

uint64_t Fnv1a64(const void* data, size_t bytes, uint64_t seed) {
  // Standard 64-bit FNV-1a; the offset basis is the default `seed`.
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = seed;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

namespace {

uint64_t HeaderChecksum(FileHeader header,
                        std::span<const SectionEntry> directory) {
  header.header_checksum = 0;
  uint64_t h = Fnv1a64(&header, sizeof(header));
  if (!directory.empty()) {
    h = Fnv1a64(directory.data(), directory.size() * sizeof(SectionEntry), h);
  }
  return h;
}

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace

// ---------------------------------------------------------------- MappedFile

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status =
        Status::IoError("fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (st.st_size == 0) {
    ::close(fd);
    return Status::Corruption("mmap " + path + ": file is empty");
  }
  // MAP_SHARED + PROT_READ: read-only pages shared across every process
  // mapping this file — the kernel page cache holds one physical copy.
  void* addr = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                      MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) {
    return Status::IoError("mmap " + path + ": " + std::strerror(errno));
  }
  MappedFile file;
  file.data_ = static_cast<const uint8_t*>(addr);
  file.size_ = static_cast<size_t>(st.st_size);
  return file;
}

void MappedFile::AdviseSequential() const {
  if (data_ != nullptr) {
    ::madvise(const_cast<uint8_t*>(data_), size_, MADV_SEQUENTIAL);
  }
}

void MappedFile::AdviseRandom() const {
  if (data_ != nullptr) {
    ::madvise(const_cast<uint8_t*>(data_), size_, MADV_RANDOM);
  }
}

void MappedFile::AdviseWillNeed() const {
  if (data_ != nullptr) {
    ::madvise(const_cast<uint8_t*>(data_), size_, MADV_WILLNEED);
  }
}

// ----------------------------------------------------------- MappedGraphFile

Result<std::shared_ptr<MappedGraphFile>> MappedGraphFile::Open(
    const std::string& path, uint64_t expected_magic,
    uint32_t expected_version, const MappedLoadOptions& options,
    KindNameFn kind_name) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();

  auto file = std::shared_ptr<MappedGraphFile>(new MappedGraphFile());
  file->file_ = std::move(mapped).value();
  file->path_ = path;
  file->kind_name_ = std::move(kind_name);

  const size_t file_bytes = file->file_.size();
  if (file_bytes < sizeof(FileHeader)) {
    return Status::Corruption(path + ": truncated v4 header (" +
                              std::to_string(file_bytes) + " bytes)");
  }
  std::memcpy(&file->header_, file->file_.data(), sizeof(FileHeader));
  const FileHeader& header = file->header_;
  if (header.magic != expected_magic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (header.version != expected_version) {
    return Status::Corruption(path + ": version " +
                              std::to_string(header.version) +
                              " is not a mappable v" +
                              std::to_string(expected_version) + " file");
  }
  if (header.file_bytes != file_bytes) {
    return Status::Corruption(
        path + ": header file size " + std::to_string(header.file_bytes) +
        " != actual " + std::to_string(file_bytes) + " (header corrupt?)");
  }
  const uint64_t directory_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(FileHeader) + directory_bytes > file_bytes) {
    return Status::Corruption(path + ": section directory extends past EOF");
  }
  file->directory_.resize(header.section_count);
  if (header.section_count > 0) {
    std::memcpy(file->directory_.data(), file->file_.data() + sizeof(FileHeader),
                directory_bytes);
  }

  // Header + directory are ALWAYS verified — they are what makes the rest
  // of the file addressable at all.
  const uint64_t expect_sum = HeaderChecksum(header, file->directory_);
  if (expect_sum != header.header_checksum) {
    return Status::Corruption(path + ": header/directory checksum mismatch");
  }

  for (const SectionEntry& e : file->directory_) {
    const std::string name = file->KindName(e.kind);
    if (e.offset % kSectionAlignment != 0) {
      return Status::Corruption(path + ": section " + name +
                                " is not page-aligned");
    }
    if (e.offset > file_bytes || e.bytes > file_bytes - e.offset) {
      return Status::Corruption(path + ": section " + name +
                                " extends past EOF");
    }
    if (e.elem_size == 0 || e.bytes != e.count * e.elem_size) {
      return Status::Corruption(path + ": section " + name +
                                " has inconsistent size fields");
    }
  }

  if (options.verify_checksums) {
    file->file_.AdviseSequential();
    for (const SectionEntry& e : file->directory_) {
      const uint64_t sum = Fnv1a64(file->file_.data() + e.offset, e.bytes);
      if (sum != e.checksum) {
        return Status::Corruption(path + ": section " + file->KindName(e.kind) +
                                  " checksum mismatch (payload corrupt)");
      }
    }
    file->checksums_verified_ = true;
    file->file_.AdviseRandom();
  }

  return file;
}

const SectionEntry* MappedGraphFile::FindSection(uint32_t kind) const {
  for (const SectionEntry& e : directory_) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

std::string MappedGraphFile::KindName(uint32_t kind) const {
  if (kind_name_) {
    std::string name = kind_name_(kind);
    if (!name.empty()) return name;
  }
  return "kind=" + std::to_string(kind);
}

// --------------------------------------------------------- SectionFileWriter

void SectionFileWriter::AddSectionBytes(uint32_t kind, uint32_t elem_size,
                                        const void* data, uint64_t bytes,
                                        uint64_t count) {
  KPJ_CHECK(elem_size > 0);
  KPJ_CHECK(bytes == count * elem_size);
  Pending pending;
  pending.entry.kind = kind;
  pending.entry.elem_size = elem_size;
  pending.entry.bytes = bytes;
  pending.entry.count = count;
  pending.data = data;
  sections_.push_back(pending);
}

Status SectionFileWriter::WriteTo(const std::string& path) const {
  // Lay out: header, directory, then payloads each rounded up to a page.
  std::vector<SectionEntry> directory;
  directory.reserve(sections_.size());
  uint64_t cursor =
      sizeof(FileHeader) + sections_.size() * sizeof(SectionEntry);
  for (const Pending& p : sections_) {
    SectionEntry e = p.entry;
    cursor = AlignUp(cursor, kSectionAlignment);
    e.offset = cursor;
    e.checksum = Fnv1a64(p.data, e.bytes);
    cursor += e.bytes;
    directory.push_back(e);
  }
  // Pad the tail too so file_bytes is page-granular and a final partial
  // page never aliases stale data.
  const uint64_t total_bytes = AlignUp(cursor, kSectionAlignment);

  FileHeader header;
  header.magic = magic_;
  header.version = version_;
  header.section_count = static_cast<uint32_t>(directory.size());
  header.file_bytes = total_bytes;
  header.header_checksum = HeaderChecksum(header, directory);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  auto write = [&out](const void* data, uint64_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  };
  auto pad_to = [&](uint64_t offset) {
    static const char kZeros[4096] = {0};
    uint64_t pos = static_cast<uint64_t>(out.tellp());
    KPJ_CHECK(pos <= offset) << "v4 writer overshot layout";
    while (pos < offset) {
      uint64_t chunk = std::min<uint64_t>(sizeof(kZeros), offset - pos);
      write(kZeros, chunk);
      pos += chunk;
    }
  };

  write(&header, sizeof(header));
  if (!directory.empty()) {
    write(directory.data(), directory.size() * sizeof(SectionEntry));
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    pad_to(directory[i].offset);
    write(sections_[i].data, directory[i].bytes);
  }
  pad_to(total_bytes);
  out.flush();
  if (!out) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace kpj
