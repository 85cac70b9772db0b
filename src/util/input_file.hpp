// Read-only access to a zone file. Zone files run to tens of GB, so their
// readers never load them: a reader maps one bounded byte range at a time
// (at most kMaxMapBytes) and parses it in place, and the few small reads a
// reader makes around a range (a line start, the line before it) go through
// pread. Several threads can map and read disjoint ranges of one open file
// at once.
//
// Only regular files are accepted: a FIFO or a device has no size to cut
// and no pages to map, and opening a FIFO for reading would wait for a
// writer. A mapped range reads the file's pages as they are on disk, so a
// file truncated under a live mapping makes the reader touching the lost
// pages die of SIGBUS; the zone readers check the size before they map, and
// a file must not shrink while it is read.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace sham::util {

/// The longest range one mapping covers: bounds the file bytes a thread
/// has mapped, whatever the file's size.
inline constexpr std::size_t kMaxMapBytes = std::size_t{16} << 20;

class InputFile {
 public:
  /// Open `path` for reading. Throws std::runtime_error naming the path
  /// when it cannot be opened or is not a regular file (a directory, a
  /// FIFO, a device), or when it reports size 0 yet is not empty or cannot
  /// be read (as /proc files do). Never waits for a FIFO's writer.
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

  /// Read exactly `n` bytes at `offset`. Throws std::runtime_error naming
  /// the path when the read fails or the file now ends before them.
  void read_exact(char* out, std::size_t n, std::size_t offset) const;

  /// Bytes [offset, offset + n) of the file, mapped read-only; unmapped
  /// when destroyed.
  class Mapping {
   public:
    Mapping() = default;
    Mapping(Mapping&& other) noexcept { swap(other); }
    Mapping& operator=(Mapping other) noexcept {
      swap(other);
      return *this;
    }
    ~Mapping();

    [[nodiscard]] std::string_view bytes() const noexcept { return {data_, size_}; }

   private:
    friend class InputFile;
    void swap(Mapping& other) noexcept;

    void* base_ = nullptr;  // page-aligned start of the mapping
    std::size_t length_ = 0;
    const char* data_ = nullptr;  // the first requested byte
    std::size_t size_ = 0;
  };

  /// Map bytes [offset, offset + n), n <= kMaxMapBytes. Checks the file's
  /// current size first: throws std::runtime_error naming the path when
  /// the file has shrunk below offset + n since it was opened, or when the
  /// mapping fails. Safe to call from several threads at once.
  [[nodiscard]] Mapping map(std::size_t offset, std::size_t n) const;

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t size_ = 0;
};

/// Call `visit(bytes)` on bytes [begin, end) of `file` in consecutive
/// mapped windows of at most kMaxMapBytes, each unmapped before the next
/// is mapped.
template <typename Visit>
void for_each_window(const InputFile& file, std::size_t begin, std::size_t end,
                     Visit&& visit) {
  while (begin < end) {
    const std::size_t n = end - begin < kMaxMapBytes ? end - begin : kMaxMapBytes;
    visit(file.map(begin, n).bytes());
    begin += n;
  }
}

}  // namespace sham::util
