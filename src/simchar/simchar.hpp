// SimChar: the automatically constructed homoglyph database (Section 3.3).
//
// Pipeline:
//   Step I    render every IDNA-permitted code point the font covers as a
//             32x32 binary bitmap;
//   Step II   compute the pixel-difference metric ∆ for every pairwise
//             combination and keep pairs with ∆ ≤ θ (paper: θ = 4);
//   Step III  eliminate sparse characters (< 10 black pixels).
//
// The quadratic Step II is exact but runs through a pigeonhole block index
// (simchar/pair_miner.hpp) that hashes θ + 1 word blocks of each bitmap
// and verifies only key collisions. Tests cross-check it against the
// naive all-pairs build, which stays selectable as the oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "font/font_source.hpp"
#include "simchar/pair_miner.hpp"
#include "unicode/codepoint.hpp"

namespace sham::simchar {

struct BuildOptions {
  int threshold = 4;           // keep pairs with ∆ ≤ threshold (Step II)
  int min_black_pixels = 10;   // sparse-character cutoff (Step III)
  std::size_t threads = 0;     // 0 = hardware concurrency
  bool idna_only = true;       // intersect repertoire with IDNA-PVALID
  /// Step II strategy (see pair_miner.hpp); kAllPairs is the oracle.
  PairStrategy pair_strategy = PairStrategy::kBlockIndex;
};

struct BuildStats {
  std::size_t repertoire_size = 0;    // code points considered
  std::size_t glyphs_rendered = 0;    // glyphs the font actually covers
  std::uint64_t pairs_compared = 0;   // full ∆ evaluations performed
  std::size_t pairs_found = 0;        // pairs with ∆ ≤ θ before Step III
  std::size_t sparse_eliminated = 0;  // characters dropped by Step III
  std::size_t pairs_after_sparse = 0;
  double render_seconds = 0.0;        // Table 5 row 1
  double compare_seconds = 0.0;       // Table 5 row 2
  double sparse_seconds = 0.0;        // Table 5 row 3
  /// Per-strategy Step II counters (strategy actually used, candidate
  /// funnel, bucket occupancy, comparisons avoided vs all-pairs).
  /// mining.delta_evaluations == pairs_compared.
  MinerStats mining;
};

/// The built homoglyph database (value type; cheap queries).
///
/// Every query reads immutable spans over the pair list and its CSR
/// posting index, held alive by one shared keepalive: arrays built in
/// memory (every constructor and build()) or the mmap'd DB artifact
/// (adopt_view). Copies share the arrays.
class SimCharDb {
 public:
  /// Run the three-step construction against `font`.
  static SimCharDb build(const font::FontSource& font, const BuildOptions& options = {},
                         BuildStats* stats = nullptr);

  SimCharDb() = default;
  explicit SimCharDb(std::vector<HomoglyphPair> pairs);

  /// The flat shape serialized into (and adopted from) the DB artifact:
  /// the canonical pair array plus the CSR posting index —
  /// postings[offsets[i] .. offsets[i+1]) are the pair indices touching
  /// chars[i], sorted by partner code point.
  struct Flat {
    std::span<const HomoglyphPair> pairs;
    std::span<const std::uint32_t> chars;     // ascending, unique
    std::span<const std::uint32_t> offsets;   // size chars.size() + 1
    std::span<const std::uint32_t> postings;  // size 2 * pairs.size()
  };

  /// Spans over the storage — what the artifact writer serializes. Valid
  /// while this db or a copy of it is alive.
  [[nodiscard]] Flat flat() const noexcept;

  /// Adopt immutable flat storage in place (zero-copy load path). The
  /// spans must satisfy the Flat invariants — the loader has already
  /// structurally validated them — and must stay valid for as long as
  /// `backing` is held. Throws std::runtime_error on shape mismatch.
  static SimCharDb adopt_view(const Flat& flat, std::shared_ptr<const void> backing);

  /// True when the db reads adopted (e.g. memory-mapped) storage.
  [[nodiscard]] bool is_view() const noexcept { return adopted_; }

  /// True if {a, b} is listed (order-insensitive; reflexive pairs are not
  /// stored, so are_homoglyphs(x, x) is false).
  [[nodiscard]] bool are_homoglyphs(unicode::CodePoint a, unicode::CodePoint b) const;

  /// The ∆ recorded for {a, b}, if listed.
  [[nodiscard]] std::optional<int> delta_of(unicode::CodePoint a,
                                            unicode::CodePoint b) const;

  /// All homoglyphs of `cp`, ascending.
  [[nodiscard]] std::vector<unicode::CodePoint> homoglyphs_of(unicode::CodePoint cp) const;

  /// All pairs, canonical order.
  [[nodiscard]] std::span<const HomoglyphPair> pairs() const noexcept { return pairs_; }

  /// Every character participating in at least one pair ("# characters"
  /// in the paper's Table 1).
  [[nodiscard]] std::vector<unicode::CodePoint> characters() const;

  [[nodiscard]] std::size_t pair_count() const noexcept { return pairs_.size(); }
  [[nodiscard]] std::size_t character_count() const noexcept { return chars_.size(); }

  /// Text serialization: one "U+XXXX U+YYYY <delta>" line per pair.
  [[nodiscard]] std::string serialize() const;
  static SimCharDb parse(std::string_view text);

  /// Merge two databases (union of pairs; on conflict the smaller ∆ wins).
  [[nodiscard]] static SimCharDb merge(const SimCharDb& a, const SimCharDb& b);

 private:
  /// Build the CSR posting index over sorted, unique `pairs` and make both
  /// this db's storage.
  void index(std::vector<HomoglyphPair> pairs);

  /// The query path reads only these spans, which point into `keepalive_`.
  std::span<const HomoglyphPair> pairs_;
  std::span<const std::uint32_t> chars_;
  std::span<const std::uint32_t> offsets_;
  std::span<const std::uint32_t> postings_;
  std::shared_ptr<const void> keepalive_;
  bool adopted_ = false;
};

/// Step I output in the kernels' word-major shape: the rendered repertoire
/// as one GlyphPanel (column i = cps[i]), with per-glyph ink counts. This
/// is what the DB artifact serializes so future incremental updates (and
/// the batched ∆ kernels) can read glyph rows straight from the mapping.
struct RepertoirePanel {
  std::vector<unicode::CodePoint> cps;  // font coverage order
  std::vector<std::int32_t> popcounts;
  kernels::GlyphPanel panel;
};

[[nodiscard]] RepertoirePanel render_repertoire_panel(const font::FontSource& font,
                                                      const BuildOptions& options = {});

/// Incremental maintenance (Section 4.2 of the paper: "we would need to
/// update SimChar when the Unicode standard adds a new set of glyphs" —
/// e.g. Unicode 12 added 553 characters over version 11).
///
/// Instead of redoing the full O(n²/2) pairwise pass, compare only the
/// `added` characters against the whole (old ∪ added) repertoire:
/// O(|added|·n) — plus the pairs among the added characters themselves.
/// The result merged with `existing` is exactly what a full rebuild over
/// the union repertoire would produce (property-tested).
///
/// `existing` must have been built from `font` with the same `options`;
/// characters in `added` that the font does not cover are ignored.
[[nodiscard]] SimCharDb update_with_new_characters(
    const SimCharDb& existing, const font::FontSource& font,
    const std::vector<unicode::CodePoint>& added, const BuildOptions& options = {},
    BuildStats* stats = nullptr);

/// Difference between two database versions: pairs only in `after`
/// (added) and only in `before` (removed).
struct DbDiff {
  std::vector<HomoglyphPair> added;
  std::vector<HomoglyphPair> removed;
};

[[nodiscard]] DbDiff diff(const SimCharDb& before, const SimCharDb& after);

}  // namespace sham::simchar
