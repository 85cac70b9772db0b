// The homoglyph database used by the detector: the union of UC
// (confusables.txt) and SimChar, with per-pair provenance (Figure 2 of the
// paper shows both sub-databases feeding the matcher). Also implements the
// "reverting to original domains" analysis of Section 6.4.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simchar/simchar.hpp"
#include "unicode/confusables.hpp"

namespace sham::homoglyph {

enum class Source : std::uint8_t {
  kUc = 1,
  kSimChar = 2,
  kBoth = 3,
};

/// Which sub-databases to consult — the measurement study compares UC-only
/// (the prior approach of Quinkert et al.), SimChar-only, and the union
/// (Tables 8 and 14).
struct DbConfig {
  bool use_uc = true;
  bool use_simchar = true;
  /// Keep only pairs whose characters are all IDNA-PVALID (UC lists many
  /// characters that cannot appear in registered IDNs).
  bool idna_only = true;
};

class HomoglyphDb {
 public:
  HomoglyphDb();

  /// Compose from a SimChar database and a confusables database.
  HomoglyphDb(const simchar::SimCharDb& simchar_db,
              const unicode::ConfusablesDb& uc_db, const DbConfig& config = {});

  /// True if {a, b} are listed as homoglyphs (symmetric, irreflexive).
  [[nodiscard]] bool are_homoglyphs(unicode::CodePoint a, unicode::CodePoint b) const;

  /// Provenance of the pair, if listed.
  [[nodiscard]] std::optional<Source> source_of(unicode::CodePoint a,
                                                unicode::CodePoint b) const;

  [[nodiscard]] std::vector<unicode::CodePoint> homoglyphs_of(unicode::CodePoint cp) const;

  /// Confusable-closure canonical map: the representative (smallest code
  /// point) of the connected component containing `cp` in the pair graph,
  /// or `cp` itself when it participates in no pair. The closure is the
  /// transitive hull of the (non-transitive) homoglyph relation, so
  /// canonical(a) == canonical(b) is a necessary — NOT sufficient —
  /// condition for {a, b} being a listed pair; candidate sets built on it
  /// over-approximate and must be re-verified with source_of()/
  /// are_homoglyphs(). Code points below U+0100 hit a dense flat array;
  /// the rest binary-search the sorted canonical map.
  [[nodiscard]] unicode::CodePoint canonical(unicode::CodePoint cp) const noexcept {
    if (cp < kDenseCanonical) return canonical_latin1_[cp];
    const auto it = std::lower_bound(canon_keys_.begin(), canon_keys_.end(), cp);
    if (it == canon_keys_.end() || *it != cp) return cp;
    return canon_reps_[static_cast<std::size_t>(it - canon_keys_.begin())];
  }

  /// Number of non-singleton confusable-closure components.
  [[nodiscard]] std::size_t canonical_class_count() const noexcept {
    return canonical_classes_;
  }

  /// Pair counts by provenance (for Table 1-style set arithmetic).
  [[nodiscard]] std::size_t pair_count() const noexcept { return pair_keys_.size(); }
  [[nodiscard]] std::size_t pair_count(Source source) const;
  [[nodiscard]] std::size_t character_count() const noexcept { return adj_cps_.size(); }

  // --- Incremental maintenance (Section 4.2: the DB evolves as Unicode
  // adds glyphs) -------------------------------------------------------
  //
  // The database carries a monotonically increasing *generation* counter.
  // Every mutating update bumps it and records which code points changed
  // their confusable-closure canonical representative, so index structures
  // built over canonical() (detect::SkeletonIndex) can rehash exactly the
  // affected components instead of rebuilding from scratch.

  /// Outcome of one apply_update()/update_with_new_characters() call.
  struct UpdateResult {
    std::size_t pairs_added = 0;      // brand-new pairs inserted
    std::size_t sources_widened = 0;  // existing pairs that gained a provenance bit
    /// Code points whose canonical() representative differs from before
    /// the call (sorted, unique). Empty when every new pair landed inside
    /// an existing component.
    std::vector<unicode::CodePoint> canonical_changed;
  };

  /// Add pairs: merges them into the sorted pair arrays and rebuilds the
  /// adjacency and canonical arrays. Bumps generation() iff the update
  /// changed anything (new pair or widened provenance).
  UpdateResult apply_update(std::span<const simchar::HomoglyphPair> pairs,
                            Source source = Source::kSimChar);

  /// Incorporate SimChar growth: add every pair of `updated` not already
  /// listed here (the shape produced by simchar::update_with_new_characters
  /// when the Unicode standard adds characters). Honors the idna_only
  /// filter this database was constructed with.
  UpdateResult update_with_new_characters(const simchar::SimCharDb& updated);

  /// Mutation counter: 0 for a freshly constructed/parsed database, +1 per
  /// effective apply_update()/update_with_new_characters() call.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  /// Code points whose canonical() representative changed after generation
  /// `since` (exclusive), sorted and unique. Returns std::nullopt when the
  /// change log cannot answer (unknown generation), in which case callers
  /// must fall back to a full rebuild of whatever they derived.
  [[nodiscard]] std::optional<std::vector<unicode::CodePoint>> canonical_changes_since(
      std::uint64_t since) const;

  /// Replace every non-ASCII character that has a Basic Latin (LDH)
  /// homoglyph with that homoglyph. Returns std::nullopt if any non-ASCII
  /// character has no LDH homoglyph — i.e. the string cannot be an IDN
  /// homograph of an ASCII domain under this database.
  [[nodiscard]] std::optional<unicode::U32String> revert_to_ascii(
      const unicode::U32String& text) const;

  /// Text serialization with provenance ("U+XXXX U+YYYY UC|SimChar|both"
  /// per line) — the portable artifact Section 7.2 proposes embedding in
  /// clients (browser extensions, mail filters). Round-trips with parse().
  [[nodiscard]] std::string serialize() const;
  /// Throws std::invalid_argument naming the line on a malformed line: not
  /// three fields, bad hex, a code point above U+10FFFF, a reflexive pair
  /// or an unknown source tag.
  static HomoglyphDb parse(std::string_view text);

  // --- Flat (DB-artifact) form -----------------------------------------
  //
  // The database *is* these sorted arrays: pair keys ((a << 32) | b,
  // a < b) with per-pair provenance, the adjacency lists as a CSR over
  // ascending characters, and the canonical map as parallel
  // key/representative arrays (its keys are exactly the adjacency
  // characters). Every const query binary-searches spans over them,
  // whether the arrays were built in memory or adopted from a mapped
  // artifact. Copies share the arrays; a mutation builds new arrays.

  struct DbConfigFlags {
    static constexpr std::uint32_t kUseUc = 1u << 0;
    static constexpr std::uint32_t kUseSimChar = 1u << 1;
    static constexpr std::uint32_t kIdnaOnly = 1u << 2;
  };

  struct Flat {
    std::vector<std::uint64_t> pair_keys;    // ascending
    std::vector<std::uint8_t> pair_sources;  // parallel to pair_keys
    std::vector<std::uint32_t> adj_cps;      // ascending, unique
    std::vector<std::uint32_t> adj_offsets;  // size adj_cps.size() + 1
    std::vector<std::uint32_t> adj_data;     // sorted within each list
    std::vector<std::uint32_t> canon_keys;   // ascending
    std::vector<std::uint32_t> canon_reps;   // parallel to canon_keys
    std::uint64_t generation = 0;
    std::uint32_t canonical_classes = 0;
    std::uint32_t config_flags = 0;
  };

  struct FlatView {
    std::span<const std::uint64_t> pair_keys;
    std::span<const std::uint8_t> pair_sources;
    std::span<const std::uint32_t> adj_cps;
    std::span<const std::uint32_t> adj_offsets;
    std::span<const std::uint32_t> adj_data;
    std::span<const std::uint32_t> canon_keys;
    std::span<const std::uint32_t> canon_reps;
    std::uint64_t generation = 0;
    std::uint32_t canonical_classes = 0;
    std::uint32_t config_flags = 0;
  };

  /// Copy the arrays out for serialization.
  [[nodiscard]] Flat to_flat() const;

  /// Adopt immutable flat storage in place. The spans must stay valid for
  /// as long as `backing` is held. Throws std::runtime_error on shape
  /// mismatch (the artifact loader validates sizes structurally first).
  static HomoglyphDb adopt_view(const FlatView& flat,
                                std::shared_ptr<const void> backing);

  /// True while the db reads adopted (e.g. memory-mapped) storage; the
  /// next effective mutation moves it to arrays built in memory.
  [[nodiscard]] bool is_view() const noexcept { return adopted_; }

 private:
  static constexpr unicode::CodePoint kDenseCanonical = 0x100;

  static std::uint64_t key(unicode::CodePoint a, unicode::CodePoint b) noexcept;
  /// The one builder: complete `flat` from its sorted, unique
  /// pair_keys/pair_sources (adjacency CSR, canonical map, class count)
  /// and make it this database's storage. Every constructor, parse() and
  /// apply_update() end here.
  void build(Flat flat);
  /// Point the query spans at `arrays`, kept alive by `keepalive`, and
  /// fill the dense Latin-1 canonical table from them.
  void attach(const FlatView& arrays, std::shared_ptr<const void> keepalive);

  std::shared_ptr<const void> keepalive_;
  std::span<const std::uint64_t> pair_keys_;
  std::span<const std::uint8_t> pair_sources_;
  std::span<const std::uint32_t> adj_cps_;
  std::span<const std::uint32_t> adj_offsets_;
  std::span<const std::uint32_t> adj_data_;
  std::span<const std::uint32_t> canon_keys_;
  std::span<const std::uint32_t> canon_reps_;
  std::array<unicode::CodePoint, kDenseCanonical> canonical_latin1_{};
  std::size_t canonical_classes_ = 0;
  bool adopted_ = false;
  DbConfig config_;
  std::uint64_t generation_ = 0;
  /// canonical_change_log_[i] lists the code points whose representative
  /// moved in generation change_log_base_ + i + 1. Construction, parse()
  /// and adoption start the log at the current generation.
  std::uint64_t change_log_base_ = 0;
  std::vector<std::vector<unicode::CodePoint>> canonical_change_log_;
};

}  // namespace sham::homoglyph
