#include "font/synthetic_font.hpp"

#include <algorithm>
#include <stdexcept>

#include "unicode/idna_properties.hpp"

namespace sham::font {

std::optional<GlyphBitmap> SyntheticFont::glyph(unicode::CodePoint cp) const {
  const auto it = std::lower_bound(cps_.begin(), cps_.end(), cp);
  if (it == cps_.end() || *it != cp) return std::nullopt;
  return glyphs_[static_cast<std::size_t>(it - cps_.begin())];
}

std::vector<unicode::CodePoint> SyntheticFont::coverage() const { return cps_; }

SyntheticFontBuilder::SyntheticFontBuilder(std::uint64_t seed, std::string name)
    : seed_{seed}, name_{std::move(name)} {}

GlyphBitmap SyntheticFontBuilder::random_glyph(util::Rng& rng) const {
  // Draw inside a 2-pixel margin with ~22% ink, giving ~170 black pixels —
  // dense enough that two independent glyphs differ by hundreds of pixels.
  GlyphBitmap g;
  for (int y = 2; y < 30; ++y) {
    for (int x = 2; x < 30; ++x) {
      if (rng.bernoulli(0.22)) g.set(x, y);
    }
  }
  return g;
}

std::size_t SyntheticFontBuilder::cover_range(unicode::CodePoint first,
                                              unicode::CodePoint last,
                                              std::size_t max_count, bool idna_only) {
  if (first > last) throw std::invalid_argument{"cover_range: first > last"};
  std::vector<unicode::CodePoint> candidates;
  for (unicode::CodePoint cp = first; cp <= last && cp >= first; ++cp) {
    if (!idna_only || unicode::is_idna_permitted(cp)) candidates.push_back(cp);
  }
  std::size_t added = 0;
  const std::size_t take = std::min(max_count, candidates.size());
  if (take == 0) return 0;
  // Evenly spaced subset keeps the coverage deterministic and spread out.
  const double step = static_cast<double>(candidates.size()) / static_cast<double>(take);
  for (std::size_t i = 0; i < take; ++i) {
    const auto cp = candidates[static_cast<std::size_t>(i * step)];
    if (glyphs_.contains(cp)) continue;
    util::Rng rng{seed_ ^ (0x9e3779b97f4a7c15ULL * (cp + 1))};
    glyphs_[cp] = random_glyph(rng);
    ++added;
  }
  return added;
}

void SyntheticFontBuilder::plant_cluster(unicode::CodePoint base,
                                         const std::vector<PlantedMember>& members) {
  util::Rng rng{seed_ ^ (0xbf58476d1ce4e5b9ULL * (base + 1))};
  const GlyphBitmap base_glyph = random_glyph(rng);
  glyphs_[base] = base_glyph;

  PlantedCluster record;
  record.base = base;
  for (const auto& member : members) {
    if (member.delta < 0) throw std::invalid_argument{"plant_cluster: negative delta"};
    GlyphBitmap g = base_glyph;
    // Flip exactly `delta` distinct pixels inside the drawing box.
    util::Rng mrng{seed_ ^ (0x94d049bb133111ebULL * (member.cp + 1))};
    int flipped = 0;
    while (flipped < member.delta) {
      const int x = 2 + static_cast<int>(mrng.below(28));
      const int y = 2 + static_cast<int>(mrng.below(28));
      // Avoid flipping the same pixel twice (which would undo the flip).
      if (g.get(x, y) != base_glyph.get(x, y)) continue;
      g.flip(x, y);
      ++flipped;
    }
    glyphs_[member.cp] = g;
    record.members.push_back(member);
  }
  clusters_.push_back(std::move(record));
}

void SyntheticFontBuilder::plant_sparse(unicode::CodePoint cp, int pixels) {
  if (pixels < 0 || pixels >= 10) {
    throw std::invalid_argument{"plant_sparse: pixel count must be in [0, 10)"};
  }
  GlyphBitmap g;
  util::Rng rng{seed_ ^ (0x2545f4914f6cdd1dULL * (cp + 1))};
  int placed = 0;
  while (placed < pixels) {
    const int x = static_cast<int>(rng.below(32));
    const int y = static_cast<int>(rng.below(32));
    if (g.get(x, y)) continue;
    g.set(x, y);
    ++placed;
  }
  glyphs_[cp] = g;
  sparse_.push_back(cp);
}

std::shared_ptr<SyntheticFont> SyntheticFontBuilder::build() const {
  auto font = std::make_shared<SyntheticFont>();
  font->name_ = name_;
  font->cps_.reserve(glyphs_.size());
  font->glyphs_.reserve(glyphs_.size());
  for (const auto& [cp, g] : glyphs_) {
    font->cps_.push_back(cp);
    font->glyphs_.push_back(g);
  }
  return font;
}

}  // namespace sham::font
