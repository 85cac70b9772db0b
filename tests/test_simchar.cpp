#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "font/synthetic_font.hpp"
#include "simchar/simchar.hpp"

namespace sham::simchar {
namespace {

using unicode::CodePoint;

std::shared_ptr<font::SyntheticFont> small_planted_font() {
  font::SyntheticFontBuilder b{2024};
  b.cover_range(0x0430, 0x045F);          // Cyrillic backdrop
  b.cover_range(0x4E00, 0x4E80, 60);      // CJK backdrop
  b.plant_cluster('o', {{0x03BF, 0}, {0x043E, 2}, {0x0585, 4}});
  b.plant_cluster('e', {{0x00E9, 1}, {0x0435, 3}, {0x025B, 5}});  // 5 > θ
  b.plant_sparse(0x0E47, 4);
  b.plant_sparse(0x0E48, 3);
  return b.build();
}

TEST(SimCharBuild, FindsPlantedPairsWithinThreshold) {
  const auto font = small_planted_font();
  const auto db = SimCharDb::build(*font);
  EXPECT_TRUE(db.are_homoglyphs('o', 0x03BF));
  EXPECT_TRUE(db.are_homoglyphs('o', 0x043E));
  EXPECT_TRUE(db.are_homoglyphs('o', 0x0585));
  EXPECT_TRUE(db.are_homoglyphs('e', 0x00E9));
  EXPECT_TRUE(db.are_homoglyphs('e', 0x0435));
}

TEST(SimCharBuild, RejectsPairsAboveThreshold) {
  const auto font = small_planted_font();
  const auto db = SimCharDb::build(*font);
  EXPECT_FALSE(db.are_homoglyphs('e', 0x025B));  // planted at ∆ = 5
  EXPECT_FALSE(db.are_homoglyphs('o', 'e'));     // independent random glyphs
}

TEST(SimCharBuild, IntraClusterPairsEmerge) {
  // Members at ∆ 0 and 2 from the base are at most 2 apart of each other.
  const auto font = small_planted_font();
  const auto db = SimCharDb::build(*font);
  EXPECT_TRUE(db.are_homoglyphs(0x03BF, 0x043E));
}

TEST(SimCharBuild, RecordsDeltas) {
  const auto font = small_planted_font();
  const auto db = SimCharDb::build(*font);
  EXPECT_EQ(db.delta_of('o', 0x03BF), 0);
  EXPECT_EQ(db.delta_of('o', 0x043E), 2);
  EXPECT_EQ(db.delta_of(0x043E, 'o'), 2);  // symmetric lookup
  EXPECT_FALSE(db.delta_of('o', 'q').has_value());
  EXPECT_FALSE(db.delta_of('o', 'o').has_value());  // irreflexive
}

TEST(SimCharBuild, DeltaLookupOverCrowdedPostingLists) {
  // delta_of binary-searches partner-sorted posting lists (hot in the
  // detect verify path); stress a character participating in many pairs,
  // as both the smaller and the larger member, in shuffled input order.
  std::vector<HomoglyphPair> pairs;
  for (unicode::CodePoint cp = 0x0400; cp < 0x0430; ++cp) {
    pairs.push_back({'m', cp, static_cast<int>(cp % 5)});
  }
  pairs.push_back({'a', 'm', 1});
  pairs.push_back({'k', 'm', 2});
  std::reverse(pairs.begin(), pairs.end());
  const SimCharDb db{std::move(pairs)};

  for (unicode::CodePoint cp = 0x0400; cp < 0x0430; ++cp) {
    EXPECT_EQ(db.delta_of('m', cp), static_cast<int>(cp % 5));
    EXPECT_EQ(db.delta_of(cp, 'm'), static_cast<int>(cp % 5));
  }
  EXPECT_EQ(db.delta_of('m', 'a'), 1);
  EXPECT_EQ(db.delta_of('k', 'm'), 2);
  EXPECT_FALSE(db.delta_of('m', 0x0430).has_value());  // one past the range
  EXPECT_FALSE(db.delta_of('m', 'b').has_value());
  // homoglyphs_of stays ascending and duplicate-free off the sorted lists.
  const auto hs = db.homoglyphs_of('m');
  ASSERT_EQ(hs.size(), 50u);
  for (std::size_t i = 1; i < hs.size(); ++i) EXPECT_LT(hs[i - 1], hs[i]);
}

TEST(SimCharBuild, ThresholdOptionWidens) {
  const auto font = small_planted_font();
  BuildOptions options;
  options.threshold = 6;
  const auto db = SimCharDb::build(*font, options);
  EXPECT_TRUE(db.are_homoglyphs('e', 0x025B));  // ∆ = 5 now included
}

TEST(SimCharBuild, SparseCharactersEliminated) {
  // The two sparse glyphs have ≤ 4 pixels each: their mutual distance is
  // ≤ 7, so without Step III they would typically appear as homoglyphs.
  const auto font = small_planted_font();
  BuildStats stats;
  const auto db = SimCharDb::build(*font, {}, &stats);
  EXPECT_FALSE(db.are_homoglyphs(0x0E47, 0x0E48));
  for (const auto cp : db.characters()) {
    EXPECT_NE(cp, 0x0E47u);
    EXPECT_NE(cp, 0x0E48u);
  }
}

TEST(SimCharBuild, SparseKeptWhenStepDisabled) {
  const auto font = small_planted_font();
  BuildOptions options;
  options.min_black_pixels = 0;
  const auto db = SimCharDb::build(*font, options);
  // With Step III disabled the two sparse glyphs may pair up (their
  // distance is ≤ 7 only if pixels overlap; at least they are allowed to).
  // The invariant we check: no character was eliminated.
  BuildStats stats;
  SimCharDb::build(*font, options, &stats);
  EXPECT_EQ(stats.sparse_eliminated, 0u);
}

TEST(SimCharBuild, PrunedEqualsNaive) {
  const auto font = small_planted_font();
  const BuildOptions pruned;  // the default block index
  BuildOptions naive;
  naive.pair_strategy = PairStrategy::kAllPairs;

  BuildStats stats_pruned;
  BuildStats stats_naive;
  const auto db_pruned = SimCharDb::build(*font, pruned, &stats_pruned);
  const auto db_naive = SimCharDb::build(*font, naive, &stats_naive);

  EXPECT_TRUE(std::ranges::equal(db_pruned.pairs(), db_naive.pairs()));
  EXPECT_LT(stats_pruned.pairs_compared, stats_naive.pairs_compared);
}

TEST(SimCharBuild, NaiveComparesAllPairs) {
  const auto font = small_planted_font();
  BuildOptions naive;
  naive.pair_strategy = PairStrategy::kAllPairs;
  BuildStats stats;
  SimCharDb::build(*font, naive, &stats);
  const auto n = stats.glyphs_rendered;
  EXPECT_EQ(stats.pairs_compared, n * (n - 1) / 2);
}

TEST(SimCharBuild, SingleThreadMatchesParallel) {
  const auto font = small_planted_font();
  BuildOptions one;
  one.threads = 1;
  BuildOptions many;
  many.threads = 4;
  EXPECT_TRUE(std::ranges::equal(SimCharDb::build(*font, one).pairs(),
                                 SimCharDb::build(*font, many).pairs()));
}

/// A font whose coverage() also lists code points it renders no glyph
/// for: the repertoire counts them, the render skips them.
class CoverageWithoutGlyphs final : public font::FontSource {
 public:
  CoverageWithoutGlyphs(font::FontSourcePtr inner, std::vector<CodePoint> blank)
      : inner_{std::move(inner)}, blank_{std::move(blank)} {}

  std::optional<font::GlyphBitmap> glyph(CodePoint cp) const override {
    return inner_->glyph(cp);
  }
  std::vector<CodePoint> coverage() const override {
    auto out = inner_->coverage();
    out.insert(out.end(), blank_.begin(), blank_.end());
    std::sort(out.begin(), out.end());
    return out;
  }
  std::string name() const override { return "coverage-without-glyphs"; }

 private:
  font::FontSourcePtr inner_;
  std::vector<CodePoint> blank_;
};

TEST(SimCharBuild, IdnaOnlyFilters) {
  font::SyntheticFontBuilder b{3};
  b.cover_range('A', 'Z', SIZE_MAX, /*idna_only=*/false);  // DISALLOWED chars
  b.plant_cluster('a', {{0x0430, 1}});
  const auto font = b.build();

  BuildStats stats;
  const auto db = SimCharDb::build(*font, {}, &stats);
  // Only the PVALID characters were considered.
  EXPECT_EQ(stats.repertoire_size, 2u);

  BuildOptions all;
  all.idna_only = false;
  BuildStats stats_all;
  SimCharDb::build(*font, all, &stats_all);
  EXPECT_EQ(stats_all.repertoire_size, 28u);

  // 'b' is PVALID and '!' DISALLOWED; the font lists both without a glyph.
  const CoverageWithoutGlyphs stub{font, {'b', '!'}};
  for (const bool idna_only : {true, false}) {
    std::vector<BuildStats> by_threads;
    std::vector<std::vector<HomoglyphPair>> pairs_by_threads;
    for (const std::size_t threads : {1u, 4u}) {
      BuildOptions options;
      options.idna_only = idna_only;
      options.threads = threads;
      BuildStats s;
      const auto built = SimCharDb::build(stub, options, &s);
      by_threads.push_back(s);
      pairs_by_threads.emplace_back(built.pairs().begin(), built.pairs().end());
    }
    const auto& s = by_threads[0];
    EXPECT_EQ(s.repertoire_size, idna_only ? 3u : 30u) << idna_only;
    EXPECT_EQ(s.glyphs_rendered, idna_only ? 2u : 28u) << idna_only;
    EXPECT_EQ(pairs_by_threads[0], (std::vector<HomoglyphPair>{{'a', 0x0430, 1}}));
    const auto& t = by_threads[1];
    EXPECT_EQ(t.repertoire_size, s.repertoire_size);
    EXPECT_EQ(t.glyphs_rendered, s.glyphs_rendered);
    EXPECT_EQ(t.pairs_compared, s.pairs_compared);
    EXPECT_EQ(t.pairs_found, s.pairs_found);
    EXPECT_EQ(t.pairs_after_sparse, s.pairs_after_sparse);
    EXPECT_EQ(t.mining.bucket_histogram, s.mining.bucket_histogram);
    EXPECT_EQ(pairs_by_threads[1], pairs_by_threads[0]) << idna_only;
  }
}

TEST(SimCharBuild, StatsTimingsPopulated) {
  const auto font = small_planted_font();
  BuildStats stats;
  SimCharDb::build(*font, {}, &stats);
  EXPECT_GT(stats.glyphs_rendered, 0u);
  EXPECT_GE(stats.render_seconds, 0.0);
  EXPECT_GE(stats.compare_seconds, 0.0);
  EXPECT_GE(stats.pairs_found, stats.pairs_after_sparse);
}

TEST(SimCharBuild, NegativeThresholdThrows) {
  const auto font = small_planted_font();
  BuildOptions options;
  options.threshold = -1;
  EXPECT_THROW(SimCharDb::build(*font, options), std::invalid_argument);
}

TEST(SimCharDbTest, QueriesOnHandBuiltDb) {
  SimCharDb db{{{'a', 0x0430, 1}, {'o', 0x043E, 0}, {0x03BF, 0x043E, 2}}};
  EXPECT_EQ(db.pair_count(), 3u);
  EXPECT_EQ(db.character_count(), 5u);
  const auto homoglyphs = db.homoglyphs_of(0x043E);
  ASSERT_EQ(homoglyphs.size(), 2u);
  EXPECT_EQ(homoglyphs[0], static_cast<CodePoint>('o'));
  EXPECT_EQ(homoglyphs[1], 0x03BFu);
  EXPECT_TRUE(db.homoglyphs_of('z').empty());
}

TEST(SimCharDbTest, CanonicalizesAndDeduplicates) {
  SimCharDb db{{{0x0430, 'a', 1}, {'a', 0x0430, 1}}};
  EXPECT_EQ(db.pair_count(), 1u);
  EXPECT_EQ(db.pairs()[0].a, static_cast<CodePoint>('a'));
  EXPECT_EQ(db.pairs()[0].b, 0x0430u);
}

TEST(SimCharDbTest, RejectsReflexivePair) {
  EXPECT_THROW(SimCharDb({{'a', 'a', 0}}), std::invalid_argument);
}

TEST(SimCharDbTest, SerializeParseRoundtrip) {
  const auto font = small_planted_font();
  const auto db = SimCharDb::build(*font);
  const auto text = db.serialize();
  const auto parsed = SimCharDb::parse(text);
  EXPECT_TRUE(std::ranges::equal(parsed.pairs(), db.pairs()));
}

TEST(SimCharDbTest, ParseFormat) {
  const auto db = SimCharDb::parse(
      "# homoglyph pairs\n"
      "U+0061 U+0430 1\n"
      "U+006F U+043E 0\n");
  EXPECT_EQ(db.pair_count(), 2u);
  EXPECT_TRUE(db.are_homoglyphs('a', 0x0430));
  EXPECT_THROW(SimCharDb::parse("U+0061 U+0430\n"), std::invalid_argument);
}

/// `text` must fail to parse with a diagnostic that starts with `prefix`.
void expect_parse_error(std::string_view text, const std::string& prefix) {
  try {
    (void)SimCharDb::parse(text);
    ADD_FAILURE() << "parsed: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}.rfind(prefix, 0), 0u) << e.what();
  }
}

TEST(SimCharDbTest, ParseRejectsImpossiblePairsNamingTheLine) {
  // ∆ ≤ 1024 on a 32x32 bitmap; 2^32 + 1 must not wrap to ∆ = 1.
  expect_parse_error("U+0061 U+0430 4294967297\n", "SimCharDb::parse: line 1: delta");
  expect_parse_error("U+0061 U+0430 2000\n", "SimCharDb::parse: line 1: delta");
  expect_parse_error("U+0061 U+0430 1025\n", "SimCharDb::parse: line 1: delta");
  EXPECT_EQ(SimCharDb::parse("U+0061 U+0430 1024\n").delta_of('a', 0x0430), 1024);
  // Code points above U+10FFFF.
  expect_parse_error("U+110000 U+FFFFFFFF 3\n", "SimCharDb::parse: line 1: code point");
  expect_parse_error("U+0061 U+110000 3\n", "SimCharDb::parse: line 1: code point");
  // Reflexive pairs, bad numbers and bad hex name their line too
  // (comments and blank lines count).
  expect_parse_error("# pairs\nU+0061 U+0430 1\nU+0061 U+0061 0\n",
                     "SimCharDb::parse: line 3: reflexive pair");
  expect_parse_error("U+0061 U+0430 1\n\nU+006F U+043E x\n",
                     "SimCharDb::parse: line 3: parse_u64: not a number: 'x'");
  expect_parse_error("U+0061 U+0430 -1\n", "SimCharDb::parse: line 1: parse_u64");
  expect_parse_error("U+00G1 U+0430 1\n",
                     "SimCharDb::parse: line 1: parse_hex_codepoint");
}

TEST(SimCharDbTest, EmptyDb) {
  SimCharDb db;
  EXPECT_EQ(db.pair_count(), 0u);
  EXPECT_FALSE(db.are_homoglyphs('a', 'b'));
  EXPECT_TRUE(db.characters().empty());
}

}  // namespace
}  // namespace sham::simchar
