#include "ulpdream/util/file_view.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ULPDREAM_POSIX_IO 1
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ulpdream::util {

namespace {

[[noreturn]] void io_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error(path + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// FileView.

FileView FileView::open(const std::string& path, bool allow_mmap) {
  FileView view;
  view.path_ = path;
#if ULPDREAM_POSIX_IO
  if (allow_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) io_fail(path, "cannot open");
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      io_fail(path, "cannot stat");
    }
    const auto len = static_cast<std::size_t>(st.st_size);
    if (len == 0) {
      // mmap of length 0 is invalid; an empty file is an empty view.
      ::close(fd);
      view.backing_ = Backing::kMapped;
      return view;
    }
    void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps the file alive
    if (base != MAP_FAILED) {
      view.map_base_ = base;
      view.map_len_ = len;
      view.data_ = static_cast<const std::byte*>(base);
      view.size_ = len;
      view.backing_ = Backing::kMapped;
      return view;
    }
    // Fall through to the portable read on mmap failure (e.g. a
    // filesystem that refuses mappings) — degraded, not fatal.
  }
#endif
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) io_fail(path, "cannot open");
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    io_fail(path, "cannot seek");
  }
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    io_fail(path, "cannot tell size");
  }
  std::rewind(f);
  view.buffer_.resize(static_cast<std::size_t>(end));
  if (!view.buffer_.empty() &&
      std::fread(view.buffer_.data(), 1, view.buffer_.size(), f) !=
          view.buffer_.size()) {
    std::fclose(f);
    io_fail(path, "short read");
  }
  std::fclose(f);
  view.data_ = view.buffer_.data();
  view.size_ = view.buffer_.size();
  view.backing_ = Backing::kBuffered;
  return view;
}

FileView::FileView(FileView&& other) noexcept { *this = std::move(other); }

FileView& FileView::operator=(FileView&& other) noexcept {
  if (this == &other) return *this;
#if ULPDREAM_POSIX_IO
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
#endif
  path_ = std::move(other.path_);
  buffer_ = std::move(other.buffer_);
  map_base_ = std::exchange(other.map_base_, nullptr);
  map_len_ = std::exchange(other.map_len_, 0);
  backing_ = other.backing_;
  size_ = std::exchange(other.size_, 0);
  data_ = std::exchange(other.data_, nullptr);
  if (backing_ == Backing::kBuffered) data_ = buffer_.data();
  return *this;
}

FileView::~FileView() {
#if ULPDREAM_POSIX_IO
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
#endif
}

std::span<const std::byte> FileView::bytes(std::uint64_t offset,
                                           std::uint64_t len) const {
  if (offset > size_ || len > size_ - offset) {
    io_fail(path_, "out-of-bounds read at offset " + std::to_string(offset) +
                       " (+" + std::to_string(len) + " bytes, file is " +
                       std::to_string(size_) + ")");
  }
  return {data_ + offset, static_cast<std::size_t>(len)};
}

// ---------------------------------------------------------------------------
// ChunkedFileReader.

void ChunkedFileReader::FdCloser::operator()(void* f) const {
  if (f != nullptr) std::fclose(static_cast<std::FILE*>(f));
}

ChunkedFileReader::ChunkedFileReader(std::string path,
                                     std::size_t chunk_bytes,
                                     std::size_t max_chunks)
    : path_(std::move(path)),
      chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes),
      max_chunks_(max_chunks == 0 ? 1 : max_chunks) {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) io_fail(path_, "cannot open");
  file_.reset(f);
  if (std::fseek(f, 0, SEEK_END) != 0) io_fail(path_, "cannot seek");
  const long end = std::ftell(f);
  if (end < 0) io_fail(path_, "cannot tell size");
  size_ = static_cast<std::uint64_t>(end);
}

void ChunkedFileReader::fill(std::uint64_t offset, void* dst,
                             std::size_t len) const {
  auto* f = static_cast<std::FILE*>(file_.get());
#if ULPDREAM_POSIX_IO
  // pread keeps the FILE* position untouched and needs no seek syscall.
  const ::ssize_t got = ::pread(::fileno(f), dst, len,
                                static_cast<::off_t>(offset));
  if (got < 0 || static_cast<std::size_t>(got) != len) {
    io_fail(path_, "short read at offset " + std::to_string(offset));
  }
#else
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(dst, 1, len, f) != len) {
    io_fail(path_, "short read at offset " + std::to_string(offset));
  }
#endif
}

const ChunkedFileReader::Chunk& ChunkedFileReader::chunk(
    std::uint64_t chunk_index) const {
  if (const auto it = map_.find(chunk_index); it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
    return *it->second;
  }
  if (lru_.size() >= max_chunks_) {
    map_.erase(lru_.back().index);
    lru_.pop_back();
  }
  Chunk c;
  c.index = chunk_index;
  const std::uint64_t start = chunk_index * chunk_bytes_;
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_bytes_, size_ - start));
  c.bytes.resize(len);
  fill(start, c.bytes.data(), len);
  lru_.push_front(std::move(c));
  map_[chunk_index] = lru_.begin();
  return lru_.front();
}

void ChunkedFileReader::read(std::uint64_t offset, void* dst,
                             std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    io_fail(path_, "out-of-bounds read at offset " + std::to_string(offset) +
                       " (+" + std::to_string(len) + " bytes, file is " +
                       std::to_string(size_) + ")");
  }
  auto* out = static_cast<std::byte*>(dst);
  while (len > 0) {
    const std::uint64_t ci = offset / chunk_bytes_;
    const std::size_t in_chunk =
        static_cast<std::size_t>(offset - ci * chunk_bytes_);
    const Chunk& c = chunk(ci);
    const std::size_t take = std::min(len, c.bytes.size() - in_chunk);
    std::memcpy(out, c.bytes.data() + in_chunk, take);
    out += take;
    offset += take;
    len -= take;
  }
}

// ---------------------------------------------------------------------------
// Durability helpers.

void fsync_file(const std::string& path) {
#if ULPDREAM_POSIX_IO
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_fail(path, "cannot open for fsync");
  if (::fsync(fd) != 0) {
    ::close(fd);
    io_fail(path, "fsync failed");
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void fsync_parent_dir(const std::string& path) {
#if ULPDREAM_POSIX_IO
  std::string dir;
  if (const auto slash = path.find_last_of('/');
      slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path.substr(0, slash);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) io_fail(dir, "cannot open directory for fsync");
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    // Some filesystems refuse directory fsync outright; that is a
    // property of the mount, not a torn write — tolerate it.
    if (err == EINVAL || err == ENOTSUP || err == ENOSYS) return;
    io_fail(dir, "directory fsync failed");
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void publish_file_atomic(const std::string& tmp, const std::string& path) {
  try {
    fsync_file(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      io_fail(tmp, "cannot rename over " + path);
    }
    // The rename is only durable once the directory entry is; without
    // this, a power cut after "success" can resurrect the old file (or
    // no file) even though the data blocks of the new one are on disk.
    fsync_parent_dir(path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace ulpdream::util
