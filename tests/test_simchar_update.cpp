// Incremental-maintenance tests: merge, diff, and the Section 4.2 update
// path (new Unicode characters added without a full pairwise rebuild).
#include <algorithm>
#include <gtest/gtest.h>

#include "font/synthetic_font.hpp"
#include "simchar/simchar.hpp"

namespace sham::simchar {
namespace {

using unicode::CodePoint;

TEST(Merge, UnionOfPairs) {
  SimCharDb a{{{'a', 0x0430, 1}}};
  SimCharDb b{{{'o', 0x043E, 0}}};
  const auto merged = SimCharDb::merge(a, b);
  EXPECT_EQ(merged.pair_count(), 2u);
  EXPECT_TRUE(merged.are_homoglyphs('a', 0x0430));
  EXPECT_TRUE(merged.are_homoglyphs('o', 0x043E));
}

TEST(Merge, SmallerDeltaWinsOnConflict) {
  SimCharDb a{{{'a', 0x0430, 4}}};
  SimCharDb b{{{'a', 0x0430, 1}}};
  EXPECT_EQ(SimCharDb::merge(a, b).delta_of('a', 0x0430), 1);
  EXPECT_EQ(SimCharDb::merge(b, a).delta_of('a', 0x0430), 1);
}

TEST(Merge, WithEmpty) {
  SimCharDb a{{{'a', 0x0430, 1}}};
  EXPECT_TRUE(std::ranges::equal(SimCharDb::merge(a, SimCharDb{}).pairs(), a.pairs()));
  EXPECT_TRUE(std::ranges::equal(SimCharDb::merge(SimCharDb{}, a).pairs(), a.pairs()));
}

TEST(Diff, AddedAndRemoved) {
  SimCharDb before{{{'a', 0x0430, 1}, {'o', 0x043E, 0}}};
  SimCharDb after{{{'o', 0x043E, 0}, {'e', 0x0435, 2}}};
  const auto d = diff(before, after);
  ASSERT_EQ(d.added.size(), 1u);
  EXPECT_EQ(d.added[0].b, 0x0435u);
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0].b, 0x0430u);
}

TEST(Diff, IdenticalDbsAreEmptyDiff) {
  SimCharDb db{{{'a', 0x0430, 1}}};
  const auto d = diff(db, db);
  EXPECT_TRUE(d.added.empty());
  EXPECT_TRUE(d.removed.empty());
}

// Build two fonts: the "old" one and the "new" one with extra characters
// (some of which are homoglyphs of old characters).
struct VersionedFonts {
  std::shared_ptr<font::SyntheticFont> old_font;
  std::shared_ptr<font::SyntheticFont> new_font;
  std::vector<CodePoint> added;
};

VersionedFonts make_versioned(std::uint64_t seed) {
  VersionedFonts v;
  // Old repertoire.
  font::SyntheticFontBuilder old_builder{seed};
  old_builder.cover_range(0x0430, 0x045F);
  old_builder.plant_cluster('o', {{0x043E, 0}, {0x0585, 2}});
  old_builder.plant_cluster('a', {{0x0251, 1}});
  v.old_font = old_builder.build();

  // New version: same glyphs plus additions; one addition (ӧ U+04E7) is a
  // near-duplicate of the 'o' cluster base, another is unrelated.
  font::SyntheticFontBuilder new_builder{seed};
  new_builder.cover_range(0x0430, 0x045F);
  new_builder.plant_cluster('o', {{0x043E, 0}, {0x0585, 2}, {0x04E7, 3}});
  new_builder.plant_cluster('a', {{0x0251, 1}});
  new_builder.cover_range(0x0531 + 0x30, 0x0586, 10, false);  // unrelated additions
  v.new_font = new_builder.build();

  for (const auto cp : v.new_font->coverage()) {
    if (!v.old_font->glyph(cp).has_value()) v.added.push_back(cp);
  }
  return v;
}

TEST(Update, MatchesFullRebuild) {
  const auto v = make_versioned(404);
  const auto existing = SimCharDb::build(*v.old_font);
  BuildStats update_stats;
  const auto updated =
      update_with_new_characters(existing, *v.new_font, v.added, {}, &update_stats);
  const auto full = SimCharDb::build(*v.new_font);
  EXPECT_TRUE(std::ranges::equal(updated.pairs(), full.pairs()));
}

TEST(Update, FindsNewHomoglyphPairs) {
  const auto v = make_versioned(405);
  const auto existing = SimCharDb::build(*v.old_font);
  EXPECT_FALSE(existing.are_homoglyphs('o', 0x04E7));
  const auto updated = update_with_new_characters(existing, *v.new_font, v.added);
  EXPECT_TRUE(updated.are_homoglyphs('o', 0x04E7));
  // The addition pairs with other cluster members too (∆ ≤ 3 + 2).
  EXPECT_TRUE(updated.are_homoglyphs(0x043E, 0x04E7));
}

TEST(Update, PreservesExistingPairs) {
  const auto v = make_versioned(406);
  const auto existing = SimCharDb::build(*v.old_font);
  const auto updated = update_with_new_characters(existing, *v.new_font, v.added);
  for (const auto& p : existing.pairs()) {
    EXPECT_TRUE(updated.are_homoglyphs(p.a, p.b));
  }
}

TEST(Update, CheaperThanFullRebuild) {
  const auto v = make_versioned(407);
  const auto existing = SimCharDb::build(*v.old_font);

  BuildOptions naive;
  naive.pair_strategy = PairStrategy::kAllPairs;
  BuildStats full_stats;
  SimCharDb::build(*v.new_font, naive, &full_stats);
  BuildStats update_stats;
  const auto updated =
      update_with_new_characters(existing, *v.new_font, v.added, naive, &update_stats);
  EXPECT_GE(updated.pair_count(), existing.pair_count());
  EXPECT_LT(update_stats.pairs_compared, full_stats.pairs_compared);
}

TEST(Update, EmptyAdditionChangesNothing) {
  const auto v = make_versioned(408);
  const auto existing = SimCharDb::build(*v.old_font);
  const auto updated = update_with_new_characters(existing, *v.old_font, {});
  EXPECT_TRUE(std::ranges::equal(updated.pairs(), existing.pairs()));
}

TEST(Update, PrunedMatchesUnpruned) {
  const auto v = make_versioned(409);
  const auto existing = SimCharDb::build(*v.old_font);
  const BuildOptions pruned;  // the default block index
  BuildOptions naive;
  naive.pair_strategy = PairStrategy::kAllPairs;
  const auto a = update_with_new_characters(existing, *v.new_font, v.added, pruned);
  const auto b = update_with_new_characters(existing, *v.new_font, v.added, naive);
  EXPECT_TRUE(std::ranges::equal(a.pairs(), b.pairs()));
}

TEST(Update, StepThreeMatchesFullBuildAtTheSparseCutoff) {
  // Regression for the Step III popcount lookup: the update path used
  // popcount_of[cp] (operator[]), whose unknown→0 default diverges from
  // full-build semantics (eliminate only characters *measured* as sparse).
  // The fix switched to .find() with unknown-keeps-pair. Lock in the
  // invariant at the exact min_black_pixels boundary: single-pixel glyphs
  // pair with each other (∆ ≤ 2) and sit right at a cutoff of 1, so any
  // popcount defaulting would flip whether they survive Step III.
  font::SyntheticFontBuilder old_builder{515};
  old_builder.plant_cluster('o', {{0x043E, 0}});
  const auto old_font = old_builder.build();

  font::SyntheticFontBuilder new_builder{515};
  new_builder.plant_cluster('o', {{0x043E, 0}});
  new_builder.plant_sparse(0x0E47, 1);  // exactly at cutoff 1: NOT sparse
  new_builder.plant_sparse(0x0E48, 1);
  new_builder.plant_sparse(0x0E49, 0);  // below cutoff: sparse, pairs erased
  const auto new_font = new_builder.build();
  const std::vector<CodePoint> added{0x0E47, 0x0E48, 0x0E49};

  BuildOptions at_cutoff;
  at_cutoff.min_black_pixels = 1;
  {
    const auto existing = SimCharDb::build(*old_font, at_cutoff);
    const auto updated =
        update_with_new_characters(existing, *new_font, added, at_cutoff);
    const auto full = SimCharDb::build(*new_font, at_cutoff);
    EXPECT_TRUE(std::ranges::equal(updated.pairs(), full.pairs()));
    EXPECT_TRUE(updated.are_homoglyphs(0x0E47, 0x0E48));   // at cutoff: kept
    EXPECT_FALSE(updated.are_homoglyphs(0x0E47, 0x0E49));  // sparse member: erased
  }

  BuildOptions above_cutoff;
  above_cutoff.min_black_pixels = 2;
  {
    const auto existing = SimCharDb::build(*old_font, above_cutoff);
    const auto updated =
        update_with_new_characters(existing, *new_font, added, above_cutoff);
    EXPECT_TRUE(std::ranges::equal(updated.pairs(),
                                   SimCharDb::build(*new_font, above_cutoff).pairs()));
    EXPECT_FALSE(updated.are_homoglyphs(0x0E47, 0x0E48));  // now below cutoff
  }
}

TEST(Update, SparseAdditionsAreFiltered) {
  font::SyntheticFontBuilder old_builder{77};
  old_builder.plant_cluster('o', {{0x043E, 0}});
  const auto old_font = old_builder.build();
  const auto existing = SimCharDb::build(*old_font);

  font::SyntheticFontBuilder new_builder{77};
  new_builder.plant_cluster('o', {{0x043E, 0}});
  new_builder.plant_sparse(0x0E47, 3);
  new_builder.plant_sparse(0x0E48, 3);
  const auto new_font = new_builder.build();

  const auto updated = update_with_new_characters(existing, *new_font,
                                                  {0x0E47, 0x0E48});
  EXPECT_FALSE(updated.are_homoglyphs(0x0E47, 0x0E48));
}

}  // namespace
}  // namespace sham::simchar
