#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "font/freetype_font.hpp"
#include "font/hex_font.hpp"
#include "font/metrics.hpp"
#include "font/paper_font.hpp"
#include "font/synthetic_font.hpp"
#include "unicode/idna_properties.hpp"

namespace sham::font {
namespace {

// --- HexFont ---------------------------------------------------------

TEST(HexFont, ParsesNarrowGlyph) {
  // 8x16 glyph: 32 hex digits, first row 0xFF (all black), rest empty.
  const auto font = HexFont::parse("0041:FF000000000000000000000000000000\n");
  EXPECT_EQ(font.size(), 1u);
  const auto g = font.glyph('A');
  ASSERT_TRUE(g.has_value());
  // Top source row scales to rows 0-1, full width.
  EXPECT_EQ(g->popcount(), 32 * 2);
  EXPECT_TRUE(g->get(0, 0));
  EXPECT_TRUE(g->get(31, 1));
  EXPECT_FALSE(g->get(0, 2));
}

TEST(HexFont, ParsesWideGlyph) {
  std::string row0 = "8000";  // leftmost pixel only
  std::string rest(15 * 4, '0');
  const auto font = HexFont::parse("4E00:" + row0 + rest + "\n");
  const auto g = font.glyph(0x4E00);
  ASSERT_TRUE(g.has_value());
  // 16x16 -> 32x32: one source pixel becomes a 2x2 block.
  EXPECT_EQ(g->popcount(), 4);
  EXPECT_TRUE(g->get(0, 0));
  EXPECT_TRUE(g->get(1, 1));
}

TEST(HexFont, SkipsCommentsAndBlankLines) {
  const auto font = HexFont::parse(
      "# GNU Unifont sample\n"
      "\n"
      "0041:FF000000000000000000000000000000\n");
  EXPECT_EQ(font.size(), 1u);
}

TEST(HexFont, RejectsMalformedLines) {
  EXPECT_THROW(HexFont::parse("0041 FF00\n"), std::invalid_argument);
  EXPECT_THROW(HexFont::parse("0041:FF\n"), std::invalid_argument);  // wrong length
  EXPECT_THROW(HexFont::parse("0041:GG000000000000000000000000000000\n"),
               std::invalid_argument);
  EXPECT_THROW(HexFont::parse("zz:FF000000000000000000000000000000\n"),
               std::invalid_argument);
  // Malformed code points and code points above U+10FFFF are rejected
  // with the offending line.
  const std::string full(32, 'F');
  const std::pair<std::string, std::string> cases[] = {
      {"110000", "code point above U+10FFFF"},
      {"FFFFFFFF", "code point above U+10FFFF"},
      {"zz", "parse_hex_codepoint: bad hex: 'zz'"},
      {"123456789AB", "parse_hex_codepoint: bad hex: '123456789AB'"},
  };
  for (const auto& [cp, why] : cases) {
    try {
      (void)HexFont::parse("0041:" + full + "\n" + cp + ":" + full + "\n");
      ADD_FAILURE() << cp << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()}, ".hex line 2: " + why);
    }
  }
  EXPECT_EQ(HexFont::parse("10FFFF:" + full + "\n").size(), 1u);
}

TEST(HexFont, SerializeParseRoundtrip) {
  HexFont font;
  std::vector<std::uint32_t> narrow(16, 0);
  narrow[0] = 0x81;
  narrow[15] = 0x7E;
  font.add_glyph('x', false, narrow);
  std::vector<std::uint32_t> wide(16, 0);
  wide[3] = 0xF00F;
  font.add_glyph(0x4E8C, true, wide);

  const auto text = font.serialize();
  const auto parsed = HexFont::parse(text);
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.glyph('x'), font.glyph('x'));
  EXPECT_EQ(parsed.glyph(0x4E8C), font.glyph(0x4E8C));
}

TEST(HexFont, AddGlyphValidation) {
  HexFont font;
  EXPECT_THROW(font.add_glyph('a', false, {}), std::invalid_argument);
  std::vector<std::uint32_t> rows(16, 0x1FF);  // too wide for 8-bit cell
  EXPECT_THROW(font.add_glyph('a', false, rows), std::invalid_argument);
  const std::vector<std::uint32_t> valid(16, 0xFF);
  EXPECT_THROW(font.add_glyph(0x110000, false, valid), std::invalid_argument);
  EXPECT_THROW(font.add_glyph(0xFFFFFFFF, false, valid), std::invalid_argument);
  EXPECT_EQ(font.size(), 0u);
  font.add_glyph(0x10FFFF, false, valid);
  EXPECT_EQ(font.coverage(), std::vector<unicode::CodePoint>{0x10FFFF});
}

TEST(HexFont, CoverageSorted) {
  HexFont font;
  const std::vector<std::uint32_t> rows(16, 0xFF);
  font.add_glyph('z', false, rows);
  font.add_glyph('a', false, rows);
  const auto cov = font.coverage();
  ASSERT_EQ(cov.size(), 2u);
  EXPECT_EQ(cov[0], 'a');
  EXPECT_EQ(cov[1], 'z');
  EXPECT_FALSE(font.glyph('q').has_value());
}

// --- SyntheticFont ---------------------------------------------------

TEST(SyntheticFont, DeterministicForSeed) {
  SyntheticFontBuilder b1{99};
  SyntheticFontBuilder b2{99};
  b1.cover_range('a', 'z');
  b2.cover_range('a', 'z');
  const auto f1 = b1.build();
  const auto f2 = b2.build();
  for (char c = 'a'; c <= 'z'; ++c) {
    EXPECT_EQ(f1->glyph(c), f2->glyph(c));
  }
}

TEST(SyntheticFont, DifferentSeedsDiffer) {
  SyntheticFontBuilder b1{1};
  SyntheticFontBuilder b2{2};
  b1.cover_range('a', 'a');
  b2.cover_range('a', 'a');
  EXPECT_NE(*b1.build()->glyph('a'), *b2.build()->glyph('a'));
}

TEST(SyntheticFont, CoverRangeRespectsIdnaFilter) {
  SyntheticFontBuilder b{5};
  // 'A'-'Z' are DISALLOWED: nothing covered with the filter on.
  EXPECT_EQ(b.cover_range('A', 'Z'), 0u);
  EXPECT_EQ(b.cover_range('A', 'Z', SIZE_MAX, /*idna_only=*/false), 26u);
}

TEST(SyntheticFont, CoverRangeCap) {
  SyntheticFontBuilder b{5};
  const auto added = b.cover_range(0x4E00, 0x4FFF, 100);
  EXPECT_EQ(added, 100u);
  EXPECT_EQ(b.build()->size(), 100u);
}

TEST(SyntheticFont, PlantedClusterHasExactDeltas) {
  SyntheticFontBuilder b{7};
  b.plant_cluster('o', {{0x03BF, 0}, {0x043E, 2}, {0x0585, 4}, {0x00F6, 6}});
  const auto font = b.build();
  const auto base = font->glyph('o');
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(delta(*base, *font->glyph(0x03BF)), 0);
  EXPECT_EQ(delta(*base, *font->glyph(0x043E)), 2);
  EXPECT_EQ(delta(*base, *font->glyph(0x0585)), 4);
  EXPECT_EQ(delta(*base, *font->glyph(0x00F6)), 6);
}

TEST(SyntheticFont, RandomGlyphsAreFarApart) {
  SyntheticFontBuilder b{11};
  b.cover_range(0x4E00, 0x4E80, 100);
  const auto font = b.build();
  const auto cov = font->coverage();
  // Spot-check pairwise distances between unrelated glyphs.
  for (std::size_t i = 0; i + 1 < cov.size(); i += 7) {
    const int d = delta(*font->glyph(cov[i]), *font->glyph(cov[i + 1]));
    EXPECT_GT(d, 50) << "cp " << cov[i] << " vs " << cov[i + 1];
  }
}

TEST(SyntheticFont, SparseGlyphs) {
  SyntheticFontBuilder b{13};
  b.plant_sparse(0x0E47, 6);
  const auto font = b.build();
  EXPECT_EQ(font->glyph(0x0E47)->popcount(), 6);
  EXPECT_THROW(b.plant_sparse(0x0E48, 10), std::invalid_argument);
  EXPECT_THROW(b.plant_sparse(0x0E48, -1), std::invalid_argument);
}

TEST(SyntheticFont, BuiltFontIsAnIndependentSortedSnapshot) {
  constexpr std::uint64_t kSeed = 23;
  SyntheticFontBuilder b{kSeed};
  ASSERT_EQ(b.cover_range(0x0430, 0x044F), 32u);  // Cyrillic а–я
  ASSERT_EQ(b.cover_range(0x4E00, 0x4E0F), 16u);  // CJK
  // The members overwrite covered Cyrillic glyphs; re-planting the
  // cluster overwrites 0x043E a second time.
  b.plant_cluster('o', {{0x043E, 2}, {0x0441, 3}});
  b.plant_cluster('o', {{0x043E, 5}});
  b.plant_sparse(0x0E47, 6);
  const auto font = b.build();

  // Coverage: exactly the code points written, strictly ascending.
  std::vector<unicode::CodePoint> expected{'o'};
  for (unicode::CodePoint cp = 0x0430; cp <= 0x044F; ++cp) expected.push_back(cp);
  expected.push_back(0x0E47);
  for (unicode::CodePoint cp = 0x4E00; cp <= 0x4E0F; ++cp) expected.push_back(cp);
  EXPECT_EQ(font->coverage(), expected);
  EXPECT_EQ(font->size(), expected.size());
  const auto cov = font->coverage();
  EXPECT_EQ(std::adjacent_find(cov.begin(), cov.end(), std::greater_equal<>{}), cov.end());

  // Each glyph is the last bitmap written to its code point: untouched
  // covered glyphs equal a builder that only covered the ranges, and the
  // overwritten ones carry the planted ∆ and ink.
  SyntheticFontBuilder ranges_only{kSeed};
  ranges_only.cover_range(0x0430, 0x044F);
  ranges_only.cover_range(0x4E00, 0x4E0F);
  const auto reference = ranges_only.build();
  for (const auto cp : reference->coverage()) {
    if (cp == 0x043E || cp == 0x0441) continue;
    EXPECT_EQ(font->glyph(cp), reference->glyph(cp)) << cp;
  }
  const auto base = font->glyph('o');
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(delta(*base, *font->glyph(0x043E)), 5);
  EXPECT_EQ(delta(*base, *font->glyph(0x0441)), 3);
  EXPECT_GT(delta(*base, *reference->glyph(0x0441)), 50);
  EXPECT_EQ(font->glyph(0x0E47)->popcount(), 6);
  EXPECT_GT(font->glyph(0x4E0F)->popcount(), 50);

  // Outside the coverage: below, in a gap, one past the end, the maximum.
  for (const unicode::CodePoint cp : {0x0000u, 0x0500u, 0x4E10u, 0x10FFFFu}) {
    EXPECT_FALSE(font->glyph(cp).has_value()) << cp;
  }

  // Amending the builder leaves the font it already built unchanged.
  b.plant_cluster('o', {{0x043E, 1}});
  b.cover_range(0x4E10, 0x4E1F);
  b.plant_sparse(0x0E48, 3);
  EXPECT_EQ(font->coverage(), expected);
  EXPECT_EQ(delta(*base, *font->glyph(0x043E)), 5);
  EXPECT_FALSE(font->glyph(0x4E10).has_value());
  EXPECT_FALSE(font->glyph(0x0E48).has_value());
  const auto amended = b.build();
  EXPECT_EQ(amended->size(), expected.size() + 17);
  EXPECT_EQ(delta(*base, *amended->glyph(0x043E)), 1);
  EXPECT_EQ(amended->glyph(0x0E48)->popcount(), 3);
}

TEST(SyntheticFont, BuilderRecordsGroundTruth) {
  SyntheticFontBuilder b{17};
  b.plant_cluster('a', {{0x0430, 1}});
  b.plant_sparse(0x1BE7, 5);
  EXPECT_EQ(b.planted().size(), 1u);
  EXPECT_EQ(b.planted()[0].base, static_cast<unicode::CodePoint>('a'));
  EXPECT_EQ(b.sparse_planted().size(), 1u);
}

// --- Paper font ------------------------------------------------------

TEST(PaperFont, CoversLatinDigitsAndClusters) {
  PaperFontConfig config;
  config.scale = 0.1;
  const auto paper = make_paper_font(config);
  for (char c = 'a'; c <= 'z'; ++c) {
    EXPECT_TRUE(paper.font->glyph(static_cast<unicode::CodePoint>(c)).has_value());
  }
  EXPECT_TRUE(paper.font->glyph('7').has_value());
  EXPECT_FALSE(paper.clusters.empty());
  EXPECT_FALSE(paper.sparse.empty());
}

TEST(PaperFont, Table3CountsArePlanted) {
  PaperFontConfig config;
  config.scale = 0.1;
  const auto paper = make_paper_font(config);
  // Per letter, count planted members with ∆ ≤ 4: must equal Table 3.
  for (const auto& [letter, want] : table3_simchar_counts()) {
    int have = 0;
    for (const auto& cluster : paper.clusters) {
      if (cluster.base != static_cast<unicode::CodePoint>(letter)) continue;
      for (const auto& m : cluster.members) {
        if (m.delta <= 4) ++have;
      }
    }
    EXPECT_GE(have, want) << "letter " << letter;
  }
}

TEST(PaperFont, CaseStudyDonorsArePinned) {
  PaperFontConfig config;
  config.scale = 0.1;
  const auto paper = make_paper_font(config);
  const auto check = [&](char letter, unicode::CodePoint donor) {
    const auto base = paper.font->glyph(static_cast<unicode::CodePoint>(letter));
    const auto g = paper.font->glyph(donor);
    ASSERT_TRUE(base.has_value());
    ASSERT_TRUE(g.has_value());
    EXPECT_LE(delta(*base, *g), 4) << letter << " / " << donor;
  };
  check('i', 0x0131);  // gmaıl
  check('o', 0x00F6);  // döviz
  check('a', 0x00E0);  // gmàil / yàhoo
  check('u', 0x00FA);  // perú
}

TEST(PaperFont, RejectsNonPositiveScale) {
  PaperFontConfig config;
  config.scale = 0.0;
  EXPECT_THROW(make_paper_font(config), std::invalid_argument);
}

// --- FreeTypeFont ----------------------------------------------------

TEST(FreeType, SystemFontWorksWhenAvailable) {
  const auto font = FreeTypeFont::open_system_font();
  if (!freetype_available() || font == nullptr) {
    GTEST_SKIP() << "no FreeType or no system font";
  }
  const auto a = font->glyph('a');
  ASSERT_TRUE(a.has_value());
  EXPECT_GT(a->popcount(), 10);
  EXPECT_GT(font->coverage().size(), 500u);
  // An unassigned code point has no glyph.
  EXPECT_FALSE(font->glyph(0x0378).has_value());
}

TEST(FreeType, GlyphsAreDeterministic) {
  const auto font = FreeTypeFont::open_system_font();
  if (font == nullptr) GTEST_SKIP();
  EXPECT_EQ(font->glyph('g'), font->glyph('g'));
}

TEST(FreeType, ThrowsOnMissingFile) {
  if (!freetype_available()) GTEST_SKIP();
  EXPECT_THROW(FreeTypeFont{"/nonexistent/font.ttf"}, std::runtime_error);
}

}  // namespace
}  // namespace sham::font
