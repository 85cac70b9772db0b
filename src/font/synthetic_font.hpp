// Deterministic synthetic glyph source.
//
// The paper builds SimChar from the 52,457 IDNA-permitted characters that
// GNU Unifont covers. The Unifont data file is not available in this
// offline environment, so for scale experiments we synthesize a font:
// every covered code point gets a pseudo-random 32x32 "glyph" derived from
// a seed, and *planted homoglyph clusters* make designated groups of code
// points visually near-identical (pairwise ∆ ≤ the planted distance).
//
// Because the SimChar pipeline only consumes code-point -> bitmap, the
// synthetic font exercises exactly the same code path as a real font,
// while giving experiments a known ground truth: the builder records every
// planted pair, so tests can check that SimChar recovers precisely the
// planted structure (no false merges between random glyphs, whose expected
// pairwise ∆ is in the hundreds).
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "font/font_source.hpp"
#include "util/rng.hpp"

namespace sham::font {

/// An immutable snapshot of a builder's glyphs, stored as two parallel
/// arrays sorted by code point: coverage() copies `cps_`, and glyph() is a
/// binary search over contiguous memory. SimChar Step I calls both once
/// per covered code point, so a node-based map here would cost more than
/// the render itself.
class SyntheticFont final : public FontSource {
 public:
  // FontSource:
  [[nodiscard]] std::optional<GlyphBitmap> glyph(unicode::CodePoint cp) const override;
  [[nodiscard]] std::vector<unicode::CodePoint> coverage() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] std::size_t size() const noexcept { return cps_.size(); }

 private:
  friend class SyntheticFontBuilder;
  std::vector<unicode::CodePoint> cps_;  // ascending
  std::vector<GlyphBitmap> glyphs_;      // glyphs_[i] is the glyph of cps_[i]
  std::string name_ = "synthetic";
};

/// One planted member of a homoglyph cluster.
struct PlantedMember {
  unicode::CodePoint cp = 0;
  int delta = 0;  // exact pixel distance from the cluster base glyph
};

/// A planted cluster: `base` plus members at controlled distances.
struct PlantedCluster {
  unicode::CodePoint base = 0;
  std::vector<PlantedMember> members;
};

class SyntheticFontBuilder {
 public:
  explicit SyntheticFontBuilder(std::uint64_t seed, std::string name = "synthetic");

  /// Cover every code point in [first, last] that satisfies `idna_only`
  /// filtering (when true, only IDNA-PVALID code points are covered). If
  /// more than `max_count` qualify, an evenly spaced subset is taken.
  /// Returns the number of code points added.
  std::size_t cover_range(unicode::CodePoint first, unicode::CodePoint last,
                          std::size_t max_count = SIZE_MAX, bool idna_only = true);

  /// Plant a homoglyph cluster. The base receives a fresh pseudo-random
  /// glyph; each member receives the base glyph with exactly `delta`
  /// pixels flipped. Re-planting a code point overwrites its glyph.
  void plant_cluster(unicode::CodePoint base,
                     const std::vector<PlantedMember>& members);

  /// Plant a sparse glyph with `pixels` black pixels (must be < 10 to be
  /// eliminated by SimChar Step III).
  void plant_sparse(unicode::CodePoint cp, int pixels);

  /// All clusters planted so far (ground truth for tests/experiments).
  [[nodiscard]] const std::vector<PlantedCluster>& planted() const noexcept {
    return clusters_;
  }

  [[nodiscard]] const std::vector<unicode::CodePoint>& sparse_planted() const noexcept {
    return sparse_;
  }

  /// Snapshot the glyphs written so far. Later amendments to the builder
  /// never change a font it already built.
  [[nodiscard]] std::shared_ptr<SyntheticFont> build() const;

 private:
  GlyphBitmap random_glyph(util::Rng& rng) const;

  std::uint64_t seed_;
  std::string name_;
  /// The glyphs written so far; writing a code point again replaces it.
  std::map<unicode::CodePoint, GlyphBitmap> glyphs_;
  std::vector<PlantedCluster> clusters_;
  std::vector<unicode::CodePoint> sparse_;
};

}  // namespace sham::font
