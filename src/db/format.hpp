// On-disk layout of the ShamFinder DB artifact (DESIGN.md §10).
//
// One flat, section-tagged binary holding the full preprocessing output
// (SimChar pairs + posting index, the homoglyph pair graph with its
// union-find canonical map, and the reference-side skeleton index), laid
// out so a reader can mmap the file and use every array *in place* — no
// parsing, no allocation proportional to the database. GGUF-style: fixed
// header, section table, 64-byte-aligned sections with per-section
// checksums, little-endian fixed-width fields.
//
//   ┌────────────────────┐ offset 0
//   │ FileHeader (64 B)  │ magic, endian marker, format version,
//   │                    │ generation stamp, section count, checksums
//   ├────────────────────┤ offset 64
//   │ SectionEntry[n]    │ tag, offset, size, FNV-1a64 checksum each
//   ├────────────────────┤ 64-byte aligned
//   │ section payload    │ scalars first, then 8-byte-aligned arrays
//   ├────────────────────┤ 64-byte aligned
//   │ ...                │
//   └────────────────────┘
//
// Safety: every decode path goes through SpanReader, which bounds-checks
// and alignment-checks before handing out spans — a truncated, bit-flipped
// or hostile file produces std::runtime_error, never UB (fuzzed in
// tests/test_db.cpp). Checksums cover each section's payload bytes;
// alignment gaps between sections are the only unchecksummed bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace sham::db {

/// "SHAMDB1\0" as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x003142444D414853ULL;
/// Bumped on any layout change; readers reject other versions.
inline constexpr std::uint32_t kFormatVersion = 1;
/// Written as the native byte order; a reader on the other endianness sees
/// 0x04030201 and rejects the file (fields are fixed-width native-endian,
/// which in practice means little-endian everywhere we build).
inline constexpr std::uint32_t kEndianMarker = 0x01020304;
/// Section payloads start on cache-line boundaries so in-place arrays
/// inherit their alignment from the page-aligned mapping.
inline constexpr std::size_t kSectionAlign = 64;

[[nodiscard]] constexpr std::uint32_t fourcc(char a, char b, char c, char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// Section tags. Unknown tags are skipped by readers (forward-compatible
/// additions), but the checksum of every section is still verified.
inline constexpr std::uint32_t kSecSimChar = fourcc('S', 'I', 'M', 'C');
inline constexpr std::uint32_t kSecHomoglyph = fourcc('H', 'G', 'D', 'B');
inline constexpr std::uint32_t kSecReferences = fourcc('R', 'E', 'F', 'S');
inline constexpr std::uint32_t kSecSkeleton = fourcc('S', 'K', 'E', 'L');
/// Retired: the rendered glyph panel, which older writers appended and no
/// reader used. Loaders verify its checksum and skip it like an unknown
/// tag. Never reuse this tag: old artifacts still carry it.
inline constexpr std::uint32_t kSecGlyphPanel = fourcc('G', 'P', 'A', 'N');

struct FileHeader {
  std::uint64_t magic = kMagic;
  std::uint32_t endian = kEndianMarker;
  std::uint32_t format_version = kFormatVersion;
  /// HomoglyphDb::generation() at serialization time. Engines loading the
  /// artifact key their caches under this stamp, which makes the in-process
  /// fingerprint cache durable across runs of the same artifact.
  std::uint64_t generation = 0;
  /// Total file size; must equal the mapped size exactly.
  std::uint64_t file_size = 0;
  std::uint32_t section_count = 0;
  std::uint32_t header_bytes = 0;  // sizeof(FileHeader), a layout cross-check
  /// FNV-1a64 over the section table (section_count * sizeof(SectionEntry)).
  std::uint64_t section_table_checksum = 0;
  /// detect::label_set_fingerprint of the REFS section's label list
  /// (0 when the artifact carries no references).
  std::uint64_t reference_fingerprint = 0;
  /// FNV-1a64 over the preceding 56 bytes of this header.
  std::uint64_t header_checksum = 0;
};
static_assert(sizeof(FileHeader) == 64, "FileHeader is exactly one cache line");

struct SectionEntry {
  std::uint32_t tag = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  // from file start; multiple of kSectionAlign
  std::uint64_t size = 0;    // payload bytes covered by `checksum`
  std::uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 32);

/// Byte-wise FNV-1a64 (the artifact checksum; independent of the skeleton
/// hash the SKEL section stores, a length-prefixed u32 stream defined in
/// detect/skeleton_index.cpp, so the two can never be confused).
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Bounds- and alignment-checked cursor over one mapped section. Every
/// failure throws std::runtime_error naming the section — the loader's
/// guarantee that corrupt input can never become an out-of-bounds read.
class SpanReader {
 public:
  SpanReader(const std::byte* base, std::size_t size, std::string what)
      : base_{base}, size_{size}, what_{std::move(what)} {}

  template <typename T>
  [[nodiscard]] T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > size_ - pos_) fail("truncated scalar");
    T value;
    std::memcpy(&value, base_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Hand out `count` elements *in place*. `count` is attacker-controlled:
  /// the bound check divides instead of multiplying so it cannot overflow.
  template <typename T>
  [[nodiscard]] std::span<const T> array(std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    align(alignof(T));
    if (count > (size_ - pos_) / sizeof(T)) fail("truncated array");
    const auto* p = reinterpret_cast<const T*>(base_ + pos_);
    pos_ += static_cast<std::size_t>(count) * sizeof(T);
    return {p, static_cast<std::size_t>(count)};
  }

  /// Advance to the next multiple of `a` (within the section). The writer
  /// emits the same pad, so reader and writer cursors stay in lockstep.
  void align(std::size_t a) {
    const auto rem = (reinterpret_cast<std::uintptr_t>(base_) + pos_) % a;
    if (rem == 0) return;
    const auto pad = a - rem;
    if (pad > size_ - pos_) fail("truncated at alignment pad");
    pos_ += pad;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error{"db artifact: section " + what_ + ": " + msg};
  }

 private:
  const std::byte* base_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string what_;
};

// --- Skeleton index flat layout ------------------------------------------
//
// The serialized form of detect::SkeletonIndex (the detect layer converts
// to/from these via SkeletonIndex::to_flat / adopt_view; the db layer only
// moves the arrays). Buckets are sorted by hash; bucket i holds the
// ascending entries bucket_entries[bucket_offsets[i], bucket_offsets[i+1]).
// The v1 SKEL payload also has slots for the retired secondary-hash bucket
// splitting, which the writer leaves empty and the reader skips
// (db/artifact.cpp skeleton_payload / parse_skeleton).

struct SkeletonFlat {
  std::uint64_t hash_mask = ~0ULL;
  std::uint64_t non_empty_buckets = 0;
  std::vector<std::uint64_t> entry_hashes;
  std::vector<std::uint64_t> bucket_hashes;   // ascending
  std::vector<std::uint32_t> bucket_offsets;  // size B + 1
  std::vector<std::uint32_t> bucket_entries;  // ascending within a bucket

  bool operator==(const SkeletonFlat&) const = default;
};

struct SkeletonFlatView {
  std::uint64_t hash_mask = ~0ULL;
  std::uint64_t non_empty_buckets = 0;
  std::span<const std::uint64_t> entry_hashes;
  std::span<const std::uint64_t> bucket_hashes;
  std::span<const std::uint32_t> bucket_offsets;
  std::span<const std::uint32_t> bucket_entries;
};

}  // namespace sham::db
