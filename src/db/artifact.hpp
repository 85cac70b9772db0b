// The DB artifact: writer (build-time serialization of the full
// preprocessing output) and loader (mmap + validate + adopt-in-place).
//
//   write_db_file(path, request)   — SimChar + homoglyph DB (mandatory),
//                                    plus optional reference labels, a
//                                    reference-side skeleton index in its
//                                    flat form, and the rendered glyph
//                                    panel. Atomic and crash-durable:
//                                    writes path + ".tmp", fsyncs it, and
//                                    renames over the target.
//   DbArtifact::load(path)         — maps the file, verifies header and
//                                    per-section checksums, structurally
//                                    validates every index array (offsets
//                                    monotonic, postings in range, keys
//                                    sorted), then exposes zero-copy views.
//                                    Any inconsistency throws
//                                    std::runtime_error — never UB.
//
// The loader never materializes the big arrays: simchar()/homoglyph()
// return view-mode databases whose queries read the mapping in place, and
// glyph_panel() adopts the mapped word rows directly (they are 64-byte
// aligned by construction). Multiple processes loading one artifact share
// its pages through the page cache.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "db/format.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "kernels/glyph_panel.hpp"
#include "simchar/simchar.hpp"
#include "unicode/codepoint.hpp"

namespace sham::db {

class MappedFile;

/// Everything one artifact carries. `simchar` and `homoglyph` are
/// mandatory; the rest is optional (empty spans / null pointers skip the
/// section). The skeleton index arrives pre-flattened because the db
/// layer sits below detect — detect::SkeletonIndex::to_flat produces it.
struct WriteRequest {
  const simchar::SimCharDb* simchar = nullptr;
  const homoglyph::HomoglyphDb* homoglyph = nullptr;
  /// Reference labels the skeleton section indexes (ASCII, LDH).
  std::span<const std::string> references{};
  /// detect::label_set_fingerprint(references); stored in the header so a
  /// loading engine can key its reference-side cache without recomputing.
  std::uint64_t reference_fingerprint = 0;
  const SkeletonFlat* skeleton = nullptr;
  /// Step I output: the rendered repertoire panel plus its parallel code
  /// point and ink-count arrays (simchar::RepertoirePanel's shape).
  const kernels::GlyphPanel* panel = nullptr;
  std::span<const unicode::CodePoint> glyph_cps{};
  std::span<const std::int32_t> glyph_popcounts{};
};

/// Serialize to `path`. Throws std::invalid_argument on a malformed
/// request (missing mandatory parts, parallel-array size mismatch) and
/// std::runtime_error on I/O failure.
///
/// Publishes by rename: the bytes go to `<path>.tmp`, which is fsynced and
/// renamed over `path`. A process that already mapped `path` keeps the old
/// file and never sees the swap. This is the only supported way to replace
/// an artifact: never rewrite or truncate a published artifact in place,
/// because DbArtifact maps it MAP_PRIVATE and a mapped file truncated under
/// a reader kills that reader with SIGBUS.
void write_db_file(const std::string& path, const WriteRequest& request);

class DbArtifact {
 public:
  /// Map and validate `path`. Throws std::runtime_error with a diagnostic
  /// naming the failing check on any corruption (wrong magic/endianness/
  /// version, truncation, checksum mismatch, misaligned or out-of-bounds
  /// section, duplicate sections, structurally inconsistent index arrays,
  /// or a SKEL section whose entry count disagrees with the REFS labels
  /// it indexes — skeleton entries are indexes into that list).
  ///
  /// The mapping stays valid for the artifact's lifetime only if whoever
  /// replaces `path` does so by rename (write_db_file), never by
  /// rewriting or truncating the file in place.
  static DbArtifact load(const std::string& path);

  DbArtifact(DbArtifact&&) noexcept = default;
  DbArtifact& operator=(DbArtifact&&) noexcept = default;

  /// HomoglyphDb::generation() stamped at serialization time.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return header_.generation;
  }
  [[nodiscard]] std::uint64_t reference_fingerprint() const noexcept {
    return header_.reference_fingerprint;
  }
  [[nodiscard]] std::size_t file_size() const noexcept;

  /// View-mode databases reading the mapping in place (zero-copy; the
  /// returned object keeps the mapping alive).
  [[nodiscard]] simchar::SimCharDb simchar() const;
  [[nodiscard]] homoglyph::HomoglyphDb homoglyph() const;

  /// Reference labels (materialized — they are small), empty when the
  /// artifact carries none.
  [[nodiscard]] const std::vector<std::string>& references() const noexcept {
    return references_;
  }

  [[nodiscard]] bool has_skeleton() const noexcept { return has_skeleton_; }
  /// Flat skeleton-index arrays for detect::SkeletonIndex::adopt_view
  /// (which performs the final structural validation).
  [[nodiscard]] const SkeletonFlatView& skeleton() const noexcept {
    return skeleton_;
  }

  [[nodiscard]] bool has_glyph_panel() const noexcept { return has_panel_; }
  /// The mapped repertoire panel, adopted in place — word rows are 64-byte
  /// aligned in the file, so the batched ∆ kernels stream straight from
  /// the page cache.
  [[nodiscard]] kernels::GlyphPanel glyph_panel() const;
  [[nodiscard]] std::span<const unicode::CodePoint> glyph_cps() const noexcept {
    return glyph_cps_;
  }
  [[nodiscard]] std::span<const std::int32_t> glyph_popcounts() const noexcept {
    return glyph_popcounts_;
  }

  /// The mapping keepalive, for adopting further views over the artifact.
  [[nodiscard]] std::shared_ptr<const void> backing() const noexcept {
    return map_;
  }

 private:
  DbArtifact() = default;

  std::shared_ptr<const MappedFile> map_;
  FileHeader header_{};
  simchar::SimCharDb::Flat simchar_{};
  homoglyph::HomoglyphDb::FlatView homoglyph_{};
  std::vector<std::string> references_;
  bool has_skeleton_ = false;
  SkeletonFlatView skeleton_{};
  bool has_panel_ = false;
  std::size_t panel_count_ = 0;
  std::size_t panel_stride_ = 0;
  const std::uint64_t* panel_words_ = nullptr;
  std::span<const unicode::CodePoint> glyph_cps_{};
  std::span<const std::int32_t> glyph_popcounts_{};
};

}  // namespace sham::db
