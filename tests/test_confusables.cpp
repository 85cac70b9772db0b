#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "unicode/confusables.hpp"
#include "unicode/idna_properties.hpp"

namespace sham::unicode {
namespace {

TEST(Confusables, EmbeddedHasClassicPairs) {
  const auto& db = ConfusablesDb::embedded();
  EXPECT_TRUE(db.confusable(0x0430, 'a'));  // Cyrillic а
  EXPECT_TRUE(db.confusable(0x043E, 'o'));  // Cyrillic о
  EXPECT_TRUE(db.confusable(0x03BF, 'o'));  // Greek ο
  EXPECT_TRUE(db.confusable(0x0131, 'i'));  // dotless ı (the gmaıl attack)
  EXPECT_FALSE(db.confusable('a', 'b'));
}

TEST(Confusables, ConfusableIsReflexive) {
  const auto& db = ConfusablesDb::embedded();
  EXPECT_TRUE(db.confusable('q', 'q'));
  EXPECT_TRUE(db.confusable(0x0430, 0x0430));
}

TEST(Confusables, TransitiveViaPrototype) {
  // Both Cyrillic о and Greek ο map to 'o': they are confusable with each
  // other through the shared skeleton.
  const auto& db = ConfusablesDb::embedded();
  EXPECT_TRUE(db.confusable(0x043E, 0x03BF));
}

TEST(Confusables, SkeletonOfString) {
  const auto& db = ConfusablesDb::embedded();
  // "gооgle" with Cyrillic о -> "google".
  const U32String in{'g', 0x043E, 0x043E, 'g', 'l', 'e'};
  const U32String want{'g', 'o', 'o', 'g', 'l', 'e'};
  EXPECT_EQ(db.skeleton(in), want);
}

TEST(Confusables, MultiCharSkeleton) {
  const auto& db = ConfusablesDb::embedded();
  // ﬁ ligature expands to "fi".
  const auto skel = db.skeleton(U32String{0xFB01});
  const U32String want{'f', 'i'};
  EXPECT_EQ(skel, want);
}

TEST(Confusables, SkeletonIdentityForUnmapped) {
  const auto& db = ConfusablesDb::embedded();
  const U32String in{'q', '7', 0x4E00};
  EXPECT_EQ(db.skeleton(in), in);
  EXPECT_EQ(db.skeleton_of('q'), U32String{'q'});
}

TEST(Confusables, SingleCharPairsAreCanonical) {
  const auto& db = ConfusablesDb::embedded();
  const auto pairs = db.single_char_pairs();
  EXPECT_GT(pairs.size(), 200u);
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a, b);
  }
  // Sorted ascending by source.
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].first, pairs[i].first);
  }
}

TEST(Confusables, AllCharactersIncludesBothSides) {
  const auto& db = ConfusablesDb::embedded();
  const auto chars = db.all_characters();
  EXPECT_TRUE(std::binary_search(chars.begin(), chars.end(), 0x0430u));
  EXPECT_TRUE(std::binary_search(chars.begin(), chars.end(),
                                 static_cast<CodePoint>('a')));
}

TEST(Confusables, UcContainsNonIdnaCharacters) {
  // The paper's Figure 3: UC is mostly outside the IDNA set (fullwidth
  // forms, ligatures, Kangxi radicals...).
  const auto& db = ConfusablesDb::embedded();
  std::size_t non_idna = 0;
  for (const auto cp : db.all_characters()) {
    if (!is_idna_permitted(cp)) ++non_idna;
  }
  EXPECT_GT(non_idna, 50u);
}

TEST(Confusables, ParseFormat) {
  const auto db = ConfusablesDb::parse(
      "# comment line\n"
      "\n"
      "0430 ; 0061 ; MA # CYRILLIC SMALL A\n"
      "FB01 ; 0066 0069 ; MA # fi ligature\n");
  EXPECT_EQ(db.entry_count(), 2u);
  EXPECT_TRUE(db.confusable(0x0430, 0x0061));
  const U32String fi{'f', 'i'};
  EXPECT_EQ(db.skeleton(U32String{0xFB01}), fi);
}

TEST(Confusables, ParseRejectsGarbage) {
  EXPECT_THROW(ConfusablesDb::parse("0430 0061\n"), std::invalid_argument);
  EXPECT_THROW(ConfusablesDb::parse("zzzz ; 0061 ;\n"), std::invalid_argument);
  EXPECT_THROW(ConfusablesDb::parse("0430 ;  ; MA\n"), std::invalid_argument);
  // Bad hex and code points above U+10FFFF, in the source or in any target
  // character, are rejected with the offending line.
  const std::pair<std::string, std::string> cases[] = {
      {"zzzz ; 0061 ; MA", "parse_hex_codepoint: bad hex: 'zzzz'"},
      {"0430 ; 00zz ; MA", "parse_hex_codepoint: bad hex: '00zz'"},
      {"123456789AB ; 0061 ; MA", "parse_hex_codepoint: bad hex: '123456789AB'"},
      {"110000 ; 0061 ; MA", "code point above U+10FFFF"},
      {"0430 ; FFFFFFFF ; MA", "code point above U+10FFFF"},
      {"FB01 ; 0066 110000 ; MA", "code point above U+10FFFF"},
  };
  for (const auto& [line, why] : cases) {
    try {
      (void)ConfusablesDb::parse("0455 ; 0073 ; MA\n" + line + "\n");
      ADD_FAILURE() << line << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()}, "confusables.txt line 2: " + why);
    }
  }
  EXPECT_EQ(ConfusablesDb::parse("10FFFF ; 0061 ; MA\n").entry_count(), 1u);
}

TEST(Confusables, ParseTolleratesMissingTypeField) {
  const auto db = ConfusablesDb::parse("0455 ; 0073\n");
  EXPECT_TRUE(db.confusable(0x0455, 's'));
}

TEST(Confusables, SystematicMathAlphabets) {
  const auto& db = ConfusablesDb::embedded();
  EXPECT_TRUE(db.confusable(0x1D41A, 'a'));  // mathematical bold a
  EXPECT_TRUE(db.confusable(0x1D68A, 'a'));  // mathematical monospace a
  EXPECT_TRUE(db.confusable(0x1D7CE, '0'));  // mathematical bold zero
  // U+1D455 (italic h) is a hole in the math alphabet: unassigned, so the
  // generator must have skipped it.
  EXPECT_FALSE(db.contains(0x1D455));
  // Its neighbours exist.
  EXPECT_TRUE(db.confusable(0x1D454, 'g'));
  EXPECT_TRUE(db.confusable(0x1D456, 'i'));
}

TEST(Confusables, SystematicEnclosedAndFullwidth) {
  const auto& db = ConfusablesDb::embedded();
  EXPECT_TRUE(db.confusable(0x24D0, 'a'));  // circled a
  EXPECT_TRUE(db.confusable(0x24B6, 'a'));  // circled capital A
  EXPECT_TRUE(db.confusable(0xFF21, 'a'));  // fullwidth capital A
}

TEST(Confusables, RomanNumeralsExpandToLetterSequences) {
  const auto& db = ConfusablesDb::embedded();
  const U32String two = db.skeleton(U32String{0x2171});  // small roman two
  const U32String want{'i', 'i'};
  EXPECT_EQ(two, want);
  const U32String m = db.skeleton(U32String{0x216F});  // capital roman M
  EXPECT_EQ(m, U32String{'m'});
}

TEST(Confusables, ContainsLookup) {
  const auto& db = ConfusablesDb::embedded();
  EXPECT_TRUE(db.contains(0x0430));
  EXPECT_FALSE(db.contains('a'));  // prototypes are not sources
}

}  // namespace
}  // namespace sham::unicode
