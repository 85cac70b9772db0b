#include <gtest/gtest.h>

#include "idna/punycode.hpp"
#include "util/rng.hpp"

namespace sham::idna {
namespace {

using unicode::U32String;

struct Rfc3492Vector {
  const char* name;
  U32String unicode;
  const char* encoded;
};

// Prints the vector's name, so the test names gtest and CTest derive from
// the parameter stay the same across builds instead of dumping pointers.
void PrintTo(const Rfc3492Vector& v, std::ostream* os) { *os << v.name; }

// Official sample strings from RFC 3492 section 7.1 (subset) plus the
// paper's own example (阿里巴巴 -> tsta8290bfzd, Section 2.1).
const Rfc3492Vector kVectors[] = {
    {"ArabicEgyptian",
     {0x0644, 0x064A, 0x0647, 0x0645, 0x0627, 0x0628, 0x062A, 0x0643, 0x0644,
      0x0645, 0x0648, 0x0634, 0x0639, 0x0631, 0x0628, 0x064A, 0x061F},
     "egbpdaj6bu4bxfgehfvwxn"},
    {"ChineseSimplified",
     {0x4ED6, 0x4EEC, 0x4E3A, 0x4EC0, 0x4E48, 0x4E0D, 0x8BF4, 0x4E2D, 0x6587},
     "ihqwcrb4cv8a8dqg056pqjye"},
    {"Czech",
     {0x0050, 0x0072, 0x006F, 0x010D, 0x0070, 0x0072, 0x006F, 0x0073, 0x0074,
      0x011B, 0x006E, 0x0065, 0x006D, 0x006C, 0x0075, 0x0076, 0x00ED, 0x010D,
      0x0065, 0x0073, 0x006B, 0x0079},
     "Proprostnemluvesky-uyb24dma41a"},
    {"JapaneseKanjiKana",
     {0x306A, 0x305C, 0x307F, 0x3093, 0x306A, 0x65E5, 0x672C, 0x8A9E, 0x3092,
      0x8A71, 0x3057, 0x3066, 0x304F, 0x308C, 0x306A, 0x3044, 0x306E, 0x304B},
     "n8jok5ay5dzabd5bym9f0cm5685rrjetr6pdxa"},
    {"RussianCyrillic",
     {0x043F, 0x043E, 0x0447, 0x0435, 0x043C, 0x0443, 0x0436, 0x0435, 0x043E,
      0x043D, 0x0438, 0x043D, 0x0435, 0x0433, 0x043E, 0x0432, 0x043E, 0x0440,
      0x044F, 0x0442, 0x043F, 0x043E, 0x0440, 0x0443, 0x0441, 0x0441, 0x043A,
      0x0438},
     "b1abfaaepdrnnbgefbadotcwatmq2g4l"},
    {"PaperExampleAlibaba",
     {0x963F, 0x91CC, 0x5DF4, 0x5DF4},
     "tsta8290bfzd"},
    {"MixedPrefMit",
     {0x0050, 0x0072, 0x0065, 0x0066, 0x003D, 0x006D, 0x0069, 0x0074},
     "Pref=mit-"},  // all-basic input keeps trailing delimiter
};

class PunycodeVectors : public ::testing::TestWithParam<Rfc3492Vector> {};

TEST_P(PunycodeVectors, EncodeMatches) {
  const auto& v = GetParam();
  EXPECT_EQ(punycode_encode(v.unicode), v.encoded) << v.name;
}

TEST_P(PunycodeVectors, DecodeMatches) {
  const auto& v = GetParam();
  const auto decoded = punycode_decode(v.encoded);
  ASSERT_TRUE(decoded.has_value()) << v.name;
  EXPECT_EQ(*decoded, v.unicode) << v.name;
}

INSTANTIATE_TEST_SUITE_P(Rfc3492, PunycodeVectors, ::testing::ValuesIn(kVectors));

TEST(Punycode, EmptyInput) {
  EXPECT_EQ(punycode_encode({}), "");
  const auto d = punycode_decode("");
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->empty());
}

TEST(Punycode, AllBasic) {
  const U32String in{'a', 'b', 'c'};
  EXPECT_EQ(punycode_encode(in), "abc-");
  const auto d = punycode_decode("abc-");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, in);
}

TEST(Punycode, SingleNonAscii) {
  // "ü" alone.
  EXPECT_EQ(punycode_encode(U32String{0xFC}), "tda");
  const auto d = punycode_decode("tda");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, U32String{0xFC});
}

TEST(Punycode, DecodeRejectsBadDigit) {
  EXPECT_FALSE(punycode_decode("ab!").has_value());
  EXPECT_FALSE(punycode_decode("\x80").has_value());
}

TEST(Punycode, DecodeRejectsOverflow) {
  EXPECT_FALSE(punycode_decode("99999999999999999999999999").has_value());
}

TEST(Punycode, EncodeRejectsSurrogate) {
  EXPECT_THROW(punycode_encode(U32String{0xD800}), std::invalid_argument);
}

TEST(Punycode, CaseInsensitiveDigitsOnDecode) {
  const auto lower = punycode_decode("tda");
  const auto upper = punycode_decode("TDA");
  ASSERT_TRUE(lower.has_value());
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(*lower, *upper);
}

// Property: encode/decode round-trips on random scalar strings.
class PunycodeRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PunycodeRoundtrip, RandomLabels) {
  util::Rng rng{GetParam()};
  for (int iter = 0; iter < 300; ++iter) {
    U32String label;
    const int n = 1 + static_cast<int>(rng.below(24));
    for (int i = 0; i < n; ++i) {
      unicode::CodePoint cp;
      if (rng.bernoulli(0.5)) {
        cp = 'a' + static_cast<unicode::CodePoint>(rng.below(26));
      } else {
        do {
          cp = static_cast<unicode::CodePoint>(rng.below(0xFFFF));
        } while (!unicode::is_scalar_value(cp));
      }
      label.push_back(cp);
    }
    const auto encoded = punycode_encode(label);
    // The delta digits (after the last delimiter) are always LDH; basic
    // input code points are copied literally before it.
    const auto last_dash = encoded.rfind('-');
    for (std::size_t i = last_dash == std::string::npos ? 0 : last_dash + 1;
         i < encoded.size(); ++i) {
      EXPECT_TRUE(unicode::is_ldh(static_cast<unsigned char>(encoded[i])));
    }
    const auto decoded = punycode_decode(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PunycodeRoundtrip,
                         ::testing::Values(10, 11, 12, 13, 14, 15));

}  // namespace
}  // namespace sham::idna
