// Generator-equivalence suite: internet::ZoneTextStream must produce
// master-file text byte-identical to the materialized
// serialize_zone(scenario_to_zone(generate_scenario(...))) path for the
// same config/seed/which/TLD, at every chunk size, with chunk boundaries
// that dns::ZoneStreamReader can be fed directly.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "dns/zone_file.hpp"
#include "dns/zone_stream.hpp"
#include "internet/scenario.hpp"
#include "internet/scenario_core.hpp"
#include "internet/zone_gen.hpp"
#include "measure/environment.hpp"
#include "util/rng.hpp"

namespace sham::internet {
namespace {

const measure::Environment& env() {
  static const auto instance = [] {
    measure::EnvironmentConfig config;
    config.font_scale = 0.1;
    return measure::Environment::create(config);
  }();
  return instance;
}

ScenarioConfig small_config(std::uint64_t seed = 2019) {
  ScenarioConfig config;
  config.seed = seed;
  config.total_domains = 6'000;
  config.reference_count = 200;
  config.attack_scale = 0.05;  // ~165 attacks
  config.idn_fraction = 0.04;  // budget 240 => benign tail is exercised
  return config;
}

std::string materialized_text(const ScenarioConfig& config, int which,
                              std::string_view tld) {
  const auto scenario = generate_scenario(env().db_union, config);
  return dns::serialize_zone(scenario_to_zone(scenario, which, tld));
}

TEST(ZoneGen, ByteIdenticalToMaterializedPath) {
  for (const std::uint64_t seed : {2019ULL, 7ULL}) {
    const auto config = small_config(seed);
    for (const int which : {0, 1, 2}) {
      for (const std::string tld : {"com", "org"}) {
        const auto streamed = generate_zone_text(
            env().db_union, config,
            {.which = which, .tld = tld, .chunk_bytes = 64 * 1024});
        EXPECT_EQ(streamed, materialized_text(config, which, tld))
            << "seed=" << seed << " which=" << which << " tld=" << tld;
      }
    }
  }
}

TEST(ZoneGen, ByteIdenticalWithoutWorld) {
  auto config = small_config();
  config.build_world = false;
  const auto streamed = generate_zone_text(env().db_union, config, {.which = 2});
  EXPECT_EQ(streamed, materialized_text(config, 2, "com"));
  // Without world state every name is a bare delegation.
  EXPECT_NE(streamed.find("ns1.registrar-default.net"), std::string::npos);
}

TEST(ZoneGen, ChunkSizeDoesNotChangeTheText) {
  const auto config = small_config();
  const auto baseline =
      generate_zone_text(env().db_union, config, {.which = 0, .chunk_bytes = 1 << 20});
  for (const std::size_t chunk_bytes : {std::size_t{1}, std::size_t{113},
                                        std::size_t{4096}}) {
    ZoneTextStream stream{env().db_union, config,
                          {.which = 0, .chunk_bytes = chunk_bytes}};
    std::string text;
    std::string chunk;
    std::size_t chunks = 0;
    while (stream.next_chunk(chunk)) {
      text += chunk;
      ++chunks;
    }
    EXPECT_EQ(text, baseline) << "chunk_bytes=" << chunk_bytes;
    EXPECT_GE(chunks, 2u) << "chunk_bytes=" << chunk_bytes;
    EXPECT_EQ(stream.stats().bytes, text.size());
  }
}

TEST(ZoneGen, ChunksFeedTheStreamReaderDirectly) {
  // The generator's chunk boundaries are arbitrary byte positions; the
  // incremental reader must deliver the record sequence of a one-shot
  // parse of the concatenated text.
  const auto config = small_config();
  const ZoneGenOptions options{.which = 0, .chunk_bytes = 777};
  const auto text = generate_zone_text(env().db_union, config, options);
  const auto oneshot = dns::parse_zone(text);

  std::vector<dns::ResourceRecord> streamed;
  dns::ZoneStreamReader reader{[&](const dns::ResourceRecord& r) {
    streamed.push_back(r);
  }};
  ZoneTextStream stream{env().db_union, config, options};
  std::string chunk;
  while (stream.next_chunk(chunk)) reader.feed(chunk);
  reader.finish();

  EXPECT_EQ(streamed, oneshot.records);
  EXPECT_EQ(streamed.size(), stream.stats().records);
}

TEST(ZoneGen, RandomChunkBoundaryProperty) {
  // Re-chunk the generated text at random boundaries (mirroring the
  // ZoneChunkProperty suite in test_dns) — the parse must be invariant.
  const auto config = small_config(11);
  const auto text = generate_zone_text(env().db_union, config, {.which = 1});
  const auto oneshot = dns::parse_zone(text);

  util::Rng rng{0xC0FFEE};
  for (int round = 0; round < 4; ++round) {
    std::vector<dns::ResourceRecord> records;
    dns::ZoneStreamReader reader{[&](const dns::ResourceRecord& r) {
      records.push_back(r);
    }};
    std::size_t at = 0;
    while (at < text.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(4096), text.size() - at);
      reader.feed(std::string_view{text}.substr(at, len));
      at += len;
    }
    reader.finish();
    EXPECT_EQ(records, oneshot.records) << "round " << round;
  }
}

TEST(ZoneGen, RangeStreamsConcatenateToTheWholeZone) {
  // Streams over consecutive population ranges [k·P/N, (k+1)·P/N) of one
  // shared core, concatenated in order, are the whole zone's text; only
  // the first carries the header.
  const auto config = small_config();
  const auto core =
      std::make_shared<const ScenarioCore>(build_scenario_core(env().db_union, config));
  const std::size_t population = core->population();
  for (const int which : {0, 1, 2}) {
    const ZoneGenOptions options{.which = which, .tld = "org", .chunk_bytes = 4096};
    const auto whole = generate_zone_text(env().db_union, config, options);
    for (std::size_t n = 1; n <= 8; ++n) {
      std::string text;
      std::string chunk;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t first = population * k / n;
        const std::size_t last = population * (k + 1) / n;
        ZoneTextStream stream{core, options, first, last};
        EXPECT_EQ(stream.population(), last - first);
        std::string part;
        while (stream.next_chunk(chunk)) part += chunk;
        EXPECT_EQ(part.starts_with("$ORIGIN"), k == 0) << "which " << which << " n " << n;
        text += part;
      }
      EXPECT_EQ(text, whole) << "which " << which << " n " << n;
    }
  }
}

TEST(ZoneGen, StatsAndPopulationAreConsistent) {
  const auto config = small_config();
  ZoneTextStream stream{env().db_union, config, {.which = 2}};
  std::string chunk;
  while (stream.next_chunk(chunk)) {
  }
  const auto& stats = stream.stats();
  EXPECT_EQ(stream.population(), config.total_domains);
  EXPECT_EQ(stats.domains_considered, config.total_domains);
  // Union list: every population index is a member.
  EXPECT_EQ(stats.domains_emitted, config.total_domains);
  EXPECT_GE(stats.records, stats.domains_emitted / 2);
}

TEST(ZoneGen, UnionOwnersAreUnique) {
  // Filler labels are unique by construction (index suffix); references,
  // attacks, and benign ACEs cannot collide with them. Benign-benign
  // duplicates are tolerated by design but do not occur at this size.
  const auto config = small_config();
  const auto zone = dns::parse_zone(
      generate_zone_text(env().db_union, config, {.which = 2}));
  std::unordered_set<std::string> owners;
  for (const auto& r : zone.records) owners.insert(r.owner.str());
  const auto core = build_scenario_core(env().db_union, config);
  EXPECT_GE(owners.size(), core.population() - core.benign_count);
}

TEST(ZoneGen, RejectsInvalidWhich) {
  EXPECT_THROW(
      (ZoneTextStream{env().db_union, small_config(), {.which = 3}}),
      std::invalid_argument);
}

TEST(ZoneGen, PerIndexFunctionsAreStateless) {
  // Calling the index-addressed functions out of order or repeatedly
  // yields identical values — the contract streaming relies on.
  const auto core = build_scenario_core(env().db_union, small_config());
  const auto a = filler_label_at(core, core.head_count() + 17);
  const auto b = filler_label_at(core, core.head_count() + 17);
  EXPECT_EQ(a, b);
  ASSERT_GT(core.benign_count, 0u);
  EXPECT_EQ(benign_idn_at(core, 0).ace, benign_idn_at(core, 0).ace);
  const auto m1 = membership_at(core, 42);
  const auto m2 = membership_at(core, 42);
  EXPECT_EQ(m1.zone, m2.zone);
  EXPECT_EQ(m1.domainlists, m2.domainlists);
  EXPECT_TRUE(m1.zone || m1.domainlists);
}

}  // namespace
}  // namespace sham::internet
