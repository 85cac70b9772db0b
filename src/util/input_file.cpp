#include "util/input_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace sham::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error{what + " " + path + ": " + std::strerror(errno)};
}

}  // namespace

InputFile::InputFile(std::string path) : path_{std::move(path)} {
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) throw_errno("cannot open", path_);
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("cannot stat", path_);
  }
  if (S_ISDIR(st.st_mode)) {
    ::close(fd_);
    throw std::runtime_error{"cannot read " + path_ + ": is a directory"};
  }
  size_ = static_cast<std::size_t>(st.st_size);
}

InputFile::~InputFile() { ::close(fd_); }

std::size_t InputFile::read_at(char* out, std::size_t n, std::size_t offset) const {
  while (true) {
    const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
    if (got >= 0) return static_cast<std::size_t>(got);
    if (errno != EINTR) throw_errno("read failed on", path_);
  }
}

}  // namespace sham::util
