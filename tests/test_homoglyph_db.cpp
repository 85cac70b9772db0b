#include <gtest/gtest.h>

#include "homoglyph/homoglyph_db.hpp"

namespace sham::homoglyph {
namespace {

using unicode::CodePoint;
using unicode::U32String;

simchar::SimCharDb sim_db() {
  // a~à, o~ö, o~Greek ο (also in UC: "both" provenance), plus a pair of
  // non-Latin homoglyphs.
  return simchar::SimCharDb{{
      {'a', 0x00E0, 2},
      {'o', 0x00F6, 3},
      {'o', 0x03BF, 1},
      {0x4E8C, 0x30CB, 2},
  }};
}

HomoglyphDb make_db(DbConfig config = {}) {
  return HomoglyphDb{sim_db(), unicode::ConfusablesDb::embedded(), config};
}

TEST(HomoglyphDb, UnionContainsBothSources) {
  const auto db = make_db();
  EXPECT_TRUE(db.are_homoglyphs('a', 0x00E0));   // SimChar only
  EXPECT_TRUE(db.are_homoglyphs('a', 0x0430));   // UC only (Cyrillic а)
  EXPECT_TRUE(db.are_homoglyphs('o', 0x03BF));   // both
}

TEST(HomoglyphDb, ProvenanceTracking) {
  const auto db = make_db();
  EXPECT_EQ(db.source_of('a', 0x00E0), Source::kSimChar);
  EXPECT_EQ(db.source_of('a', 0x0430), Source::kUc);
  EXPECT_EQ(db.source_of('o', 0x03BF), Source::kBoth);
  EXPECT_FALSE(db.source_of('a', 'b').has_value());
  EXPECT_FALSE(db.source_of('a', 'a').has_value());
}

TEST(HomoglyphDb, SymmetricLookup) {
  const auto db = make_db();
  EXPECT_TRUE(db.are_homoglyphs(0x00E0, 'a'));
  EXPECT_EQ(db.source_of(0x0430, 'a'), Source::kUc);
}

TEST(HomoglyphDb, UcOnlyConfig) {
  DbConfig config;
  config.use_simchar = false;
  const auto db = make_db(config);
  EXPECT_FALSE(db.are_homoglyphs('a', 0x00E0));
  EXPECT_TRUE(db.are_homoglyphs('a', 0x0430));
}

TEST(HomoglyphDb, SimOnlyConfig) {
  DbConfig config;
  config.use_uc = false;
  const auto db = make_db(config);
  EXPECT_TRUE(db.are_homoglyphs('a', 0x00E0));
  EXPECT_FALSE(db.are_homoglyphs('a', 0x0430));
}

TEST(HomoglyphDb, IdnaFilterDropsNonPvalidUcPairs) {
  const auto db = make_db();  // idna_only = true
  // Fullwidth ａ is in UC but NFKC-unstable, hence not IDNA-permitted.
  EXPECT_FALSE(db.are_homoglyphs(0xFF41, 'a'));

  DbConfig config;
  config.idna_only = false;
  const auto db_all = make_db(config);
  EXPECT_TRUE(db_all.are_homoglyphs(0xFF41, 'a'));
}

TEST(HomoglyphDb, PairCountsBySource) {
  const auto db = make_db();
  EXPECT_EQ(db.pair_count(),
            db.pair_count(Source::kUc) + db.pair_count(Source::kSimChar) -
                db.pair_count(Source::kBoth));
  EXPECT_GE(db.pair_count(Source::kSimChar), 4u);
  EXPECT_GT(db.pair_count(Source::kUc), 100u);
}

TEST(HomoglyphDb, HomoglyphsOfSortedUnique) {
  const auto db = make_db();
  const auto hs = db.homoglyphs_of('o');
  EXPECT_GE(hs.size(), 3u);  // ö, Greek ο, Cyrillic о, Armenian օ, ...
  for (std::size_t i = 1; i < hs.size(); ++i) EXPECT_LT(hs[i - 1], hs[i]);
  EXPECT_TRUE(db.homoglyphs_of(0x2603).empty());  // snowman: not a homoglyph
}

TEST(HomoglyphDb, RevertToAscii) {
  const auto db = make_db();
  // "gооgle" with Cyrillic о (UC pair) -> "google".
  const U32String idn{'g', 0x043E, 0x043E, 'g', 'l', 'e'};
  const auto reverted = db.revert_to_ascii(idn);
  ASSERT_TRUE(reverted.has_value());
  const U32String want{'g', 'o', 'o', 'g', 'l', 'e'};
  EXPECT_EQ(*reverted, want);
}

TEST(HomoglyphDb, RevertMixedSources) {
  const auto db = make_db();
  // à (SimChar) + Cyrillic о (UC) in one label.
  const U32String idn{0x00E0, 0x043E};
  const auto reverted = db.revert_to_ascii(idn);
  ASSERT_TRUE(reverted.has_value());
  const U32String want{'a', 'o'};
  EXPECT_EQ(*reverted, want);
}

TEST(HomoglyphDb, RevertFailsWithoutLdhHomoglyph) {
  const auto db = make_db();
  // 二 has a Katakana homoglyph but no LDH one.
  const U32String idn{'a', 0x4E8C};
  EXPECT_FALSE(db.revert_to_ascii(idn).has_value());
}

TEST(HomoglyphDb, RevertKeepsAsciiUntouched) {
  const auto db = make_db();
  const U32String plain{'x', 'y', '1', '-'};
  EXPECT_EQ(db.revert_to_ascii(plain), plain);
}

TEST(HomoglyphDb, SerializeParseRoundtrip) {
  const auto db = make_db();
  const auto text = db.serialize();
  const auto reloaded = HomoglyphDb::parse(text);
  EXPECT_EQ(reloaded.pair_count(), db.pair_count());
  EXPECT_EQ(reloaded.pair_count(Source::kUc), db.pair_count(Source::kUc));
  EXPECT_EQ(reloaded.pair_count(Source::kSimChar), db.pair_count(Source::kSimChar));
  EXPECT_EQ(reloaded.pair_count(Source::kBoth), db.pair_count(Source::kBoth));
  EXPECT_EQ(reloaded.source_of('o', 0x03BF), Source::kBoth);
  EXPECT_EQ(reloaded.source_of('a', 0x00E0), Source::kSimChar);
  EXPECT_EQ(reloaded.homoglyphs_of('o'), db.homoglyphs_of('o'));
}

TEST(HomoglyphDb, SerializeIsDeterministic) {
  const auto db = make_db();
  EXPECT_EQ(db.serialize(), db.serialize());
}

TEST(HomoglyphDb, ParseRejectsGarbage) {
  EXPECT_THROW(HomoglyphDb::parse("U+0061 U+0430\n"), std::invalid_argument);
  EXPECT_THROW(HomoglyphDb::parse("U+0061 U+0430 Bogus\n"), std::invalid_argument);
  EXPECT_THROW(HomoglyphDb::parse("zz U+0430 UC\n"), std::invalid_argument);

  // Out-of-range and reflexive pairs fail with their line number, as they
  // do in SimCharDb::parse.
  const auto expect_rejected = [](const std::string& text, const std::string& why) {
    try {
      (void)HomoglyphDb::parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(why), std::string::npos) << e.what();
    }
  };
  expect_rejected("U+110000 U+0430 UC\n", "line 1: code point above U+10FFFF");
  expect_rejected("U+FFFFFFFF U+0061 SimChar\n", "line 1: code point above U+10FFFF");
  expect_rejected("U+0061 U+0061 UC\n", "line 1: reflexive pair");
  expect_rejected("# portable homoglyph DB\nU+0061 U+0430 UC\nU+0062 U+0062 both\n",
                  "line 3: reflexive pair");
  expect_rejected("U+0061 zz UC\n", "line 1:");
}

TEST(HomoglyphDb, ParseAcceptsCommentsAndBlankLines) {
  const auto db = HomoglyphDb::parse(
      "# portable homoglyph DB\n"
      "\n"
      "U+0061 U+0430 UC\n"
      "U+006F U+00F6 SimChar\n"
      "U+006F U+03BF both\n");
  EXPECT_EQ(db.pair_count(), 3u);
  EXPECT_EQ(db.source_of('o', 0x03BF), Source::kBoth);
}

// --- Confusable-closure canonical map ---------------------------------

TEST(HomoglyphDb, CanonicalEqualForEveryListedPair) {
  const auto db = make_db();
  // Pair members always share a component representative — the necessary
  // condition the skeleton index is built on.
  EXPECT_EQ(db.canonical('a'), db.canonical(0x00E0));
  EXPECT_EQ(db.canonical('a'), db.canonical(0x0430));
  EXPECT_EQ(db.canonical('o'), db.canonical(0x00F6));
  EXPECT_EQ(db.canonical('o'), db.canonical(0x03BF));
  EXPECT_EQ(db.canonical(0x4E8C), db.canonical(0x30CB));
}

TEST(HomoglyphDb, CanonicalIsComponentMinimum) {
  // Representative = smallest code point of the component, so Latin bases
  // canonicalize to themselves here.
  simchar::SimCharDb sim{{{'o', 0x043E, 0}, {0x043E, 0x0585, 1}}};
  DbConfig config;
  config.use_uc = false;
  const HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};
  EXPECT_EQ(db.canonical('o'), static_cast<CodePoint>('o'));
  EXPECT_EQ(db.canonical(0x043E), static_cast<CodePoint>('o'));
  EXPECT_EQ(db.canonical(0x0585), static_cast<CodePoint>('o'));
  EXPECT_EQ(db.canonical_class_count(), 1u);
}

TEST(HomoglyphDb, CanonicalClosureIsOverApproximate) {
  // Non-transitive triple: a~b and b~c listed, {a, c} NOT listed. The
  // closure still puts all three in one component — canonical equality
  // must never be read as "is a pair".
  simchar::SimCharDb sim{{{'a', 'b', 1}, {'b', 'c', 1}}};
  DbConfig config;
  config.use_uc = false;
  const HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};
  EXPECT_EQ(db.canonical('a'), db.canonical('c'));
  EXPECT_FALSE(db.are_homoglyphs('a', 'c'));
}

TEST(HomoglyphDb, CanonicalIdentityOutsidePairGraph) {
  const auto db = make_db();
  EXPECT_EQ(db.canonical('z'), static_cast<CodePoint>('z'));      // Latin-1 fast path
  EXPECT_EQ(db.canonical(0x2603), 0x2603u);                       // map path (snowman)
  EXPECT_EQ(db.canonical(0x10FFFF), 0x10FFFFu);
}

TEST(HomoglyphDb, CanonicalDenseFastPathAgreesWithSelf) {
  // Every Latin-1 code point answers identically whether it went through
  // the flat array or would have gone through the map.
  const auto db = make_db();
  for (CodePoint cp = 0; cp < 0x100; ++cp) {
    const auto rep = db.canonical(cp);
    EXPECT_EQ(db.canonical(rep), rep) << "cp=" << cp;  // idempotent
    if (rep != cp) {
      // In-component: some listed neighbour chain connects cp to rep.
      EXPECT_FALSE(db.homoglyphs_of(cp).empty()) << "cp=" << cp;
    }
  }
}

TEST(HomoglyphDb, CanonicalSurvivesSerializeParse) {
  const auto db = make_db();
  const auto reloaded = HomoglyphDb::parse(db.serialize());
  EXPECT_EQ(reloaded.canonical_class_count(), db.canonical_class_count());
  EXPECT_EQ(reloaded.canonical('a'), db.canonical('a'));
  EXPECT_EQ(reloaded.canonical(0x0430), db.canonical(0x0430));
  EXPECT_EQ(reloaded.canonical(0x03BF), db.canonical(0x03BF));
}

TEST(HomoglyphDb, EmptyDbCanonicalIsIdentity) {
  HomoglyphDb db;
  EXPECT_EQ(db.canonical('a'), static_cast<CodePoint>('a'));
  EXPECT_EQ(db.canonical(0x0430), 0x0430u);
  EXPECT_EQ(db.canonical_class_count(), 0u);
}

TEST(HomoglyphDb, EmptyDb) {
  HomoglyphDb db;
  EXPECT_EQ(db.pair_count(), 0u);
  EXPECT_FALSE(db.are_homoglyphs('a', 0x0430));
  const U32String idn{0x0430};
  EXPECT_FALSE(db.revert_to_ascii(idn).has_value());
}

// --- Generation counter & incremental updates --------------------------

HomoglyphDb sim_only_db(std::vector<simchar::HomoglyphPair> pairs) {
  DbConfig config;
  config.use_uc = false;
  return HomoglyphDb{simchar::SimCharDb{std::move(pairs)},
                     unicode::ConfusablesDb::embedded(), config};
}

TEST(HomoglyphDbUpdate, GenerationBumpsOnlyOnEffectiveChange) {
  auto db = sim_only_db({{'a', 'b', 1}});
  EXPECT_EQ(db.generation(), 0u);

  // Brand-new pair: bump.
  const simchar::HomoglyphPair fresh[] = {{'x', 'y', 1}};
  auto result = db.apply_update(fresh);
  EXPECT_EQ(result.pairs_added, 1u);
  EXPECT_EQ(db.generation(), 1u);

  // Exact duplicate (same pair, same source): no bump.
  result = db.apply_update(fresh);
  EXPECT_EQ(result.pairs_added, 0u);
  EXPECT_EQ(result.sources_widened, 0u);
  EXPECT_TRUE(result.canonical_changed.empty());
  EXPECT_EQ(db.generation(), 1u);

  // Same pair from the other source: provenance widens to kBoth — that is
  // an observable change, so the generation bumps.
  result = db.apply_update(fresh, Source::kUc);
  EXPECT_EQ(result.pairs_added, 0u);
  EXPECT_EQ(result.sources_widened, 1u);
  EXPECT_TRUE(result.canonical_changed.empty());
  EXPECT_EQ(db.generation(), 2u);
  EXPECT_EQ(db.source_of('x', 'y'), Source::kBoth);
}

TEST(HomoglyphDbUpdate, IdnaFilterAppliesToUpdatesToo) {
  auto db = sim_only_db({{'a', 'b', 1}});
  // Fullwidth ａ is NFKC-unstable, hence not IDNA-permitted; the pair must
  // be dropped by the same filter the constructor applies, with no bump.
  const simchar::HomoglyphPair rejected[] = {{'a', 0xFF41, 1}};
  const auto result = db.apply_update(rejected);
  EXPECT_EQ(result.pairs_added, 0u);
  EXPECT_EQ(db.generation(), 0u);
  EXPECT_FALSE(db.are_homoglyphs('a', 0xFF41));
}

TEST(HomoglyphDbUpdate, MergeReportsLosingComponentMembers) {
  // {a, b} and {x, y} are separate components; bridging b~x merges them and
  // moves the representative of every member of the losing ({x, y}, whose
  // rep 'x' > 'a') component.
  auto db = sim_only_db({{'a', 'b', 1}, {'x', 'y', 1}});
  EXPECT_EQ(db.canonical_class_count(), 2u);

  const simchar::HomoglyphPair bridge[] = {{'b', 'x', 1}};
  const auto result = db.apply_update(bridge);
  EXPECT_EQ(result.pairs_added, 1u);
  const std::vector<CodePoint> want{'x', 'y'};
  EXPECT_EQ(result.canonical_changed, want);
  EXPECT_EQ(db.canonical_class_count(), 1u);
  for (const CodePoint cp : {'a', 'b', 'x', 'y'}) {
    EXPECT_EQ(db.canonical(cp), static_cast<CodePoint>('a')) << cp;
  }
}

TEST(HomoglyphDbUpdate, WithinComponentPairMovesNoCanonical) {
  // a~b~c already one component; adding the chord {a, c} lists a new pair
  // but no representative moves.
  auto db = sim_only_db({{'a', 'b', 1}, {'b', 'c', 1}});
  const simchar::HomoglyphPair chord[] = {{'a', 'c', 2}};
  const auto result = db.apply_update(chord);
  EXPECT_EQ(result.pairs_added, 1u);
  EXPECT_TRUE(result.canonical_changed.empty());
  EXPECT_EQ(db.generation(), 1u);
  EXPECT_TRUE(db.are_homoglyphs('a', 'c'));
  EXPECT_EQ(db.canonical_class_count(), 1u);
}

TEST(HomoglyphDbUpdate, ChangesSinceAnswersKnownGenerationsOnly) {
  auto db = sim_only_db({{'a', 'b', 1}, {'x', 'y', 1}});
  // Fresh database: nothing changed since "now".
  ASSERT_TRUE(db.canonical_changes_since(0).has_value());
  EXPECT_TRUE(db.canonical_changes_since(0)->empty());
  // The future is unanswerable.
  EXPECT_FALSE(db.canonical_changes_since(1).has_value());

  const simchar::HomoglyphPair bridge[] = {{'b', 'x', 1}};
  db.apply_update(bridge);                       // gen 1: {x, y} move
  const simchar::HomoglyphPair chord[] = {{'a', 'y', 1}};
  db.apply_update(chord);                        // gen 2: nothing moves

  const std::vector<CodePoint> moved{'x', 'y'};
  EXPECT_EQ(db.canonical_changes_since(0), moved);   // union of gens 1..2
  EXPECT_EQ(db.canonical_changes_since(1), std::vector<CodePoint>{});
  EXPECT_EQ(db.canonical_changes_since(2), std::vector<CodePoint>{});
  EXPECT_FALSE(db.canonical_changes_since(3).has_value());
}

TEST(HomoglyphDbUpdate, IncrementalCanonicalMatchesFullRebuild) {
  auto db = sim_only_db({{'a', 'b', 1}, {'c', 'd', 1}, {'x', 'y', 1}});
  const simchar::HomoglyphPair updates[] = {
      {'b', 'c', 1},          // merges {a,b} with {c,d}
      {'d', 'x', 2},          // merges the result with {x,y}
      {'a', 0x0430, 1},       // grows the component with a new code point
  };
  for (const auto& pair : updates) {
    const simchar::HomoglyphPair one[] = {pair};
    db.apply_update(one);
  }
  // A full rebuild from the serialized pair list must agree with the
  // incrementally maintained closure on every touched code point.
  const auto rebuilt = HomoglyphDb::parse(db.serialize());
  EXPECT_EQ(rebuilt.canonical_class_count(), db.canonical_class_count());
  EXPECT_EQ(rebuilt.pair_count(), db.pair_count());
  for (const CodePoint cp :
       {CodePoint{'a'}, CodePoint{'b'}, CodePoint{'c'}, CodePoint{'d'},
        CodePoint{'x'}, CodePoint{'y'}, CodePoint{0x0430}, CodePoint{'z'}}) {
    EXPECT_EQ(rebuilt.canonical(cp), db.canonical(cp)) << cp;
  }
  // update_with_new_characters is the same machinery fed by a SimChar db.
  auto other = sim_only_db({{'a', 'b', 1}});
  const auto result = other.update_with_new_characters(
      simchar::SimCharDb{{{'a', 'b', 1}, {'p', 'q', 3}}});
  EXPECT_EQ(result.pairs_added, 1u);  // {a,b} already listed
  EXPECT_EQ(other.generation(), 1u);
  EXPECT_TRUE(other.are_homoglyphs('p', 'q'));
}

}  // namespace
}  // namespace sham::homoglyph
