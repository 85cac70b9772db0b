// Tests for the extension features: non-Latin homograph detection
// (Sections 2.2/7.1), visual-distance ranking, and file-based zone
// streaming.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "detect/engine.hpp"
#include "detect/ranking.hpp"
#include "dns/zone_file.hpp"
#include "font/synthetic_font.hpp"
#include "idna/idna.hpp"
#include "temp_dir.hpp"

namespace sham {
namespace {

using unicode::U32String;

// --- Non-Latin homograph detection --------------------------------------

homoglyph::HomoglyphDb cjk_db() {
  // 工/エ (the paper's Section 2.2 example) and 口/ロ.
  simchar::SimCharDb sim{{
      {0x5DE5, 0x30A8, 2},
      {0x53E3, 0x30ED, 1},
      {'o', 0x043E, 0},
  }};
  homoglyph::DbConfig config;
  config.use_uc = false;
  return homoglyph::HomoglyphDb{sim, unicode::ConfusablesDb::embedded(), config};
}

TEST(NonLatinDetection, KatakanaSpoofOfIdeographLabel) {
  const auto db = cjk_db();
  const detect::HomographDetector detector{db};
  // Reference 工業大学, attack エ業大学.
  const U32String reference{0x5DE5, 0x696D, 0x5927, 0x5B66};
  const U32String attack{0x30A8, 0x696D, 0x5927, 0x5B66};
  std::vector<detect::DiffChar> diffs;
  ASSERT_TRUE(detector.match_pair(reference, attack, &diffs));
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].index, 0u);
  EXPECT_EQ(diffs[0].idn_char, 0x30A8u);
  EXPECT_EQ(diffs[0].ref_char, 0x5DE5u);
}

TEST(NonLatinDetection, DetectUnicodeOverLists) {
  const auto db = cjk_db();
  const detect::Engine engine{
      db, {.strategy = detect::Strategy::kSerial, .cache = false}};
  const std::vector<U32String> references{
      {0x5DE5, 0x696D, 0x5927, 0x5B66},  // 工業大学
      {0x53E3, 0x5EA7},                  // 口座
  };
  std::vector<detect::IdnEntry> idns;
  const U32String a1{0x30A8, 0x696D, 0x5927, 0x5B66};  // エ業大学
  const U32String a2{0x30ED, 0x5EA7};                  // ロ座
  const U32String benign{0x4E00, 0x4E8C};
  idns.push_back({idna::to_a_label(a1), a1});
  idns.push_back({idna::to_a_label(a2), a2});
  idns.push_back({idna::to_a_label(benign), benign});

  const auto r = engine.detect({.unicode_references = references, .idns = idns});
  EXPECT_EQ(r.matches.size(), 2u);
  EXPECT_GT(r.stats.length_bucket_hits, 0u);
}

TEST(NonLatinDetection, ExactIdeographStringIsNotAHomograph) {
  const auto db = cjk_db();
  const detect::HomographDetector detector{db};
  const U32String reference{0x5DE5, 0x696D};
  EXPECT_FALSE(detector.match_pair(reference, reference));
}

// --- Visual ranking ------------------------------------------------------

TEST(Ranking, MostDeceptiveFirst) {
  font::SyntheticFontBuilder b{55};
  b.plant_cluster('o', {{0x043E, 0}, {0x0585, 4}});
  b.plant_cluster('e', {{0x0435, 2}});
  const auto font = b.build();
  const auto sim = simchar::SimCharDb::build(*font);
  homoglyph::DbConfig config;
  config.use_uc = false;
  const homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};
  const detect::Engine engine{
      db, {.strategy = detect::Strategy::kSerial, .cache = false}};

  const std::vector<std::string> refs{"oe"};
  std::vector<detect::IdnEntry> idns;
  const U32String pixel_clone{0x043E, 'e'};       // ∆ = 0
  const U32String accented{0x0585, 0x0435};       // ∆ = 4 + 2
  const U32String middling{'o', 0x0435};          // ∆ = 2
  for (const auto& label : {accented, pixel_clone, middling}) {
    idns.push_back({idna::to_a_label(label), label});
  }
  const auto matches = engine.detect({.references = refs, .idns = idns}).matches;
  ASSERT_EQ(matches.size(), 3u);

  const auto ranked = detect::rank_matches(*font, matches, refs, idns);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].total_visual_delta, 0);
  EXPECT_EQ(ranked[1].total_visual_delta, 2);
  EXPECT_EQ(ranked[2].total_visual_delta, 6);
  EXPECT_EQ(idns[ranked[0].match.idn_index].unicode, pixel_clone);
}

TEST(Ranking, VisualDistanceHelper) {
  font::SyntheticFontBuilder b{56};
  b.plant_cluster('a', {{0x0430, 3}});
  const auto font = b.build();
  const U32String idn{0x0430, 'b'};
  // 'b' is not covered by this tiny font: matching position is equal, so
  // it is never rendered; only the differing position counts.
  EXPECT_EQ(detect::visual_distance(*font, "ab", idn), 3);
  const U32String wrong_len{0x0430};
  EXPECT_FALSE(detect::visual_distance(*font, "ab", wrong_len).has_value());
  // A differing position with no glyph coverage yields nullopt.
  const U32String uncovered{'a', 0x9999};
  EXPECT_FALSE(detect::visual_distance(*font, "ab", uncovered).has_value());
}

// --- Zone file streaming -------------------------------------------------

TEST(ZoneFileStream, ReadsFromDisk) {
  const std::string path = test::temp_path("test_zone_stream.zone");
  {
    std::ofstream out{path};
    out << "$ORIGIN com.\n$TTL 3600\n";
    for (int i = 0; i < 500; ++i) {
      out << "domain-" << i << " IN NS ns1.hoster.net.\n";
    }
  }
  std::size_t count = 0;
  std::size_t ns_records = 0;
  const auto total = dns::parse_zone_file(path, [&](const dns::ResourceRecord& r) {
    ++count;
    if (r.type == dns::RecordType::kNs) ++ns_records;
    EXPECT_EQ(r.ttl, 3600u);
  });
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(count, 500u);
  EXPECT_EQ(ns_records, 500u);
  std::remove(path.c_str());
}

TEST(ZoneFileStream, MissingFileThrows) {
  EXPECT_THROW(dns::parse_zone_file("/nonexistent/zone.db", [](const auto&) {}),
               std::runtime_error);
}

TEST(ZoneFileStream, MalformedRecordThrowsWithLine) {
  const std::string path = test::temp_path("test_zone_bad.zone");
  {
    std::ofstream out{path};
    out << "$ORIGIN com.\nok IN A 1.2.3.4\nbad IN A banana\n";
  }
  try {
    dns::parse_zone_file(path, [](const auto&) {});
    FAIL() << "expected ZoneParseError";
  } catch (const dns::ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sham
