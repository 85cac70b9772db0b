#include "util/input_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace sham::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error{what + " " + path + ": " + std::strerror(errno)};
}

[[noreturn]] void throw_shrank(const std::string& path) {
  throw std::runtime_error{"zone file " + path + " shrank while read"};
}

}  // namespace

InputFile::InputFile(std::string path) : path_{std::move(path)} {
  // O_NONBLOCK: opening a FIFO without a writer returns at once instead of
  // waiting; the file-type check below then rejects it.
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd_ < 0) throw_errno("cannot open", path_);
  try {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) throw_errno("cannot stat", path_);
    if (S_ISDIR(st.st_mode)) {
      throw std::runtime_error{"cannot read " + path_ + ": is a directory"};
    }
    if (!S_ISREG(st.st_mode)) {
      throw std::runtime_error{"cannot read " + path_ + ": not a regular file"};
    }
    size_ = static_cast<std::size_t>(st.st_size);
    // Some files report size 0 and still hold bytes, or fail every read
    // (/proc/self/mem); only a read that returns nothing makes one empty.
    char probe = 0;
    if (size_ == 0 && read_at(&probe, 1, 0) != 0) {
      throw std::runtime_error{"cannot read " + path_ + ": reports size 0 but holds data"};
    }
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

InputFile::~InputFile() { ::close(fd_); }

std::size_t InputFile::read_at(char* out, std::size_t n, std::size_t offset) const {
  while (true) {
    const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
    if (got >= 0) return static_cast<std::size_t>(got);
    if (errno != EINTR) throw_errno("read failed on", path_);
  }
}

void InputFile::read_exact(char* out, std::size_t n, std::size_t offset) const {
  while (n > 0) {
    const std::size_t got = read_at(out, n, offset);
    if (got == 0) throw_shrank(path_);
    out += got;
    offset += got;
    n -= got;
  }
}

InputFile::Mapping::~Mapping() {
  if (base_ != nullptr) ::munmap(base_, length_);
}

void InputFile::Mapping::swap(Mapping& other) noexcept {
  std::swap(base_, other.base_);
  std::swap(length_, other.length_);
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
}

InputFile::Mapping InputFile::map(std::size_t offset, std::size_t n) const {
  Mapping out;
  if (n == 0) return out;
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throw_errno("cannot stat", path_);
  if (static_cast<std::size_t>(st.st_size) < offset + n) throw_shrank(path_);
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t skip = offset % page;
  out.length_ = skip + n;
  void* base = ::mmap(nullptr, out.length_, PROT_READ, MAP_PRIVATE, fd_,
                      static_cast<off_t>(offset - skip));
  if (base == MAP_FAILED) throw_errno("cannot map", path_);
  out.base_ = base;
  out.data_ = static_cast<const char*>(base) + skip;
  out.size_ = n;
  return out;
}

}  // namespace sham::util
