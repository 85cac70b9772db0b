// Read-only file access by offset. Zone files run to tens of GB, so their
// readers never map or load them: they read bounded windows with pread,
// and several threads can read disjoint ranges of one open file at once.
#pragma once

#include <cstddef>
#include <string>

namespace sham::util {

class InputFile {
 public:
  /// Open `path` for reading. Throws std::runtime_error naming the path
  /// when it cannot be opened or names a directory.
  explicit InputFile(std::string path);
  ~InputFile();
  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// File size at open time.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Read up to `n` bytes at `offset` into `out`; returns the count, 0 only
  /// at end of file. Safe to call from several threads at once. Throws
  /// std::runtime_error naming the path when the read fails.
  std::size_t read_at(char* out, std::size_t n, std::size_t offset) const;

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t size_ = 0;
};

}  // namespace sham::util
