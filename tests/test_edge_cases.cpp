// Edge cases across modules: file-based font loading, degenerate scenario
// configurations, logging, and API misuse that must fail cleanly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "detect/engine.hpp"
#include "font/hex_font.hpp"
#include "internet/scenario.hpp"
#include "measure/environment.hpp"
#include "util/log.hpp"
#include "temp_dir.hpp"

namespace sham {
namespace {

TEST(HexFontFile, LoadFromDisk) {
  const std::string path = test::temp_path("mini.hex");
  {
    std::ofstream out{path};
    out << "# mini font\n";
    out << "0041:FF000000000000000000000000000000\n";
    out << "4E00:" << std::string(64, '0') << "\n";
  }
  const auto font = font::HexFont::load(path);
  EXPECT_EQ(font.size(), 2u);
  EXPECT_TRUE(font.glyph('A').has_value());
  EXPECT_EQ(font.glyph(0x4E00)->popcount(), 0);
  std::remove(path.c_str());
}

TEST(HexFontFile, MissingFileThrows) {
  EXPECT_THROW(font::HexFont::load("/nonexistent/unifont.hex"), std::runtime_error);
}

const measure::Environment& env() {
  static const auto instance = [] {
    measure::EnvironmentConfig config;
    config.font_scale = 0.1;
    return measure::Environment::create(config);
  }();
  return instance;
}

TEST(ScenarioEdge, ZeroAttackScale) {
  internet::ScenarioConfig config;
  config.total_domains = 2'000;
  config.reference_count = 50;
  config.attack_scale = 0.0;
  const auto s = internet::generate_scenario(env().db_union, config);
  // Only the 10 Table 11 case studies remain planted.
  EXPECT_LE(s.attacks.size(), 10u);
  EXPECT_EQ(s.domains.size(), 2'000u);
}

TEST(ScenarioEdge, TinyPopulationStillConsistent) {
  internet::ScenarioConfig config;
  config.total_domains = 1'200;
  config.reference_count = 30;
  config.attack_scale = 0.01;
  const auto s = internet::generate_scenario(env().db_union, config);
  EXPECT_EQ(s.domains.size(), config.total_domains);
  // References and attacks all appear in the population.
  std::unordered_set<std::string> names{s.domains.begin(), s.domains.end()};
  for (const auto& ref : s.references) {
    EXPECT_TRUE(names.contains(ref + ".com")) << ref;
  }
  for (const auto& attack : s.attacks) {
    EXPECT_TRUE(names.contains(attack.ace + ".com")) << attack.ace;
  }
}

TEST(ScenarioEdge, CustomSeedChangesBackdropNotStructure) {
  internet::ScenarioConfig a;
  a.total_domains = 1'500;
  a.reference_count = 40;
  a.attack_scale = 0.01;
  auto b = a;
  b.seed = 777;
  const auto sa = internet::generate_scenario(env().db_union, a);
  const auto sb = internet::generate_scenario(env().db_union, b);
  EXPECT_NE(sa.domains, sb.domains);           // different worlds
  EXPECT_EQ(sa.domains.size(), sb.domains.size());  // same shape
}

TEST(EnvironmentEdge, CustomThresholdPropagates) {
  measure::EnvironmentConfig config;
  config.font_scale = 0.05;
  config.build.threshold = 2;
  const auto custom = measure::Environment::create(config);
  // A stricter threshold yields a strictly smaller (or equal) database
  // than the θ = 4 default at the same scale.
  measure::EnvironmentConfig base = config;
  base.build.threshold = 4;
  const auto standard = measure::Environment::create(base);
  EXPECT_LT(custom.simchar.pair_count(), standard.simchar.pair_count());
  for (const auto& p : custom.simchar.pairs()) {
    EXPECT_LE(p.delta, 2);
  }
}

// detect() with an empty IDN set or an empty reference span must return
// fully-zeroed DetectionStats — including the skeleton and cache fields —
// under every strategy: no index build, no cache traffic, no shard slots.
TEST(DetectEdge, EmptyInputsZeroStatsUnderAllStrategies) {
  simchar::SimCharDb sim{{{'o', 0x043E, 0}}};
  homoglyph::DbConfig config;
  config.use_uc = false;
  const homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};
  const std::vector<std::string> refs{"google"};
  const std::vector<detect::IdnEntry> idns{
      {"xn--ggle-0nda", {'g', 0x043E, 0x043E, 'g', 'l', 'e'}}};
  const std::vector<std::string> no_refs;
  const std::vector<detect::IdnEntry> no_idns;

  const auto expect_zeroed = [](const detect::DetectResponse& r, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(r.matches.empty());
    const auto& s = r.stats;
    EXPECT_EQ(s.length_bucket_hits, 0u);
    EXPECT_EQ(s.char_comparisons, 0u);
    EXPECT_EQ(s.seconds, 0.0);
    EXPECT_EQ(s.match_seconds, 0.0);
    EXPECT_EQ(s.merge_seconds, 0.0);
    EXPECT_EQ(s.threads_used, 1u);
    EXPECT_EQ(s.shards_used, 1u);
    EXPECT_TRUE(s.shard_candidates.empty());
    EXPECT_EQ(s.skeleton_build_seconds, 0.0);
    EXPECT_EQ(s.skeleton_candidates, 0u);
    EXPECT_EQ(s.skeleton_rejected, 0u);
    EXPECT_EQ(s.skeleton_buckets, 0u);
    EXPECT_TRUE(s.skeleton_bucket_histogram.empty());
    EXPECT_EQ(s.index_cache_hits, 0u);
    EXPECT_EQ(s.index_cache_rebuilds, 0u);
    EXPECT_EQ(s.index_cache_updates, 0u);
    EXPECT_EQ(s.index_entries_rehashed, 0u);
    EXPECT_EQ(s.result_cache_hits, 0u);
    EXPECT_EQ(s.index_update_seconds, 0.0);
    EXPECT_EQ(s.db_generation, 0u);
    EXPECT_EQ(s.index_generation, 0u);
    EXPECT_FALSE(s.inverted_join);
  };

  for (const auto strategy : {detect::Strategy::kSerial, detect::Strategy::kSkeleton}) {
    const detect::Engine engine{db, {.strategy = strategy, .threads = 4}};
    expect_zeroed(engine.detect({.references = refs, .idns = no_idns}),
                  "empty IDN set");
    expect_zeroed(engine.detect({.references = no_refs, .idns = idns}),
                  "empty reference span");
    expect_zeroed(engine.detect({}), "both empty");
    // An empty run must not pollute the cache either: a real query right
    // after still works and starts cold.
    const auto real = engine.detect({.references = refs, .idns = idns});
    if (strategy != detect::Strategy::kSerial) {
      EXPECT_EQ(real.stats.index_cache_rebuilds, 1u);
    }
    EXPECT_EQ(real.matches.size(), 1u);
  }
}

TEST(Log, LevelFiltering) {
  const auto saved = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  // These must not crash and are suppressed below the level.
  util::log_debug("suppressed");
  util::log_info("suppressed");
  util::log_warn("suppressed");
  util::log_error("visible (stderr)");
  util::set_log_level(saved);
}

}  // namespace
}  // namespace sham
