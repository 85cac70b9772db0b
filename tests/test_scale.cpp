// Paper-scale streaming pipeline tests (measure/scale_run.hpp): bounded
// zone streaming, streamed-vs-materialised verdict identity, slices of a
// zone equal to one sequential pass at every slice count, and the
// generation-diff ingestion loop proven state-identical to a rebuild.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/shamfinder.hpp"
#include "db/artifact.hpp"
#include "detect/skeleton_index.hpp"
#include "dns/zone_file.hpp"
#include "font/synthetic_font.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "idna/idna.hpp"
#include "internet/scenario.hpp"
#include "internet/scenario_core.hpp"
#include "internet/zone_gen.hpp"
#include "measure/environment.hpp"
#include "measure/scale_run.hpp"
#include "unicode/confusables.hpp"
#include "util/input_file.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace sham::measure {
namespace {

using unicode::CodePoint;

// RAII temp zone file in this process's scratch directory.
class TempZone {
 public:
  TempZone(const std::string& name, const std::string& text)
      : path_{test::temp_path(name)} {
    std::ofstream out{path_, std::ios::trunc};
    out << text;
  }
  ~TempZone() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// The test_simchar_update versioned-font shape: the new font adds ӧ plus
// the digit '0' to the 'o' cluster — '0' becomes the component's new
// canonical representative, forcing reference-index rehashing.
struct VersionedFonts {
  std::shared_ptr<font::SyntheticFont> old_font;
  std::shared_ptr<font::SyntheticFont> new_font;
  std::vector<CodePoint> added;
};

VersionedFonts make_versioned(std::uint64_t seed) {
  VersionedFonts v;
  font::SyntheticFontBuilder old_builder{seed};
  old_builder.cover_range(0x0430, 0x045F);
  old_builder.plant_cluster('o', {{0x043E, 0}, {0x0585, 2}});
  old_builder.plant_cluster('a', {{0x0251, 1}});
  v.old_font = old_builder.build();

  font::SyntheticFontBuilder new_builder{seed};
  new_builder.cover_range(0x0430, 0x045F);
  new_builder.plant_cluster('o', {{0x043E, 0}, {0x0585, 2}, {0x04E7, 3}, {0x30, 2}});
  new_builder.plant_cluster('a', {{0x0251, 1}});
  new_builder.cover_range(0x0531 + 0x30, 0x0586, 10, false);
  v.new_font = new_builder.build();

  for (const auto cp : v.new_font->coverage()) {
    if (!v.old_font->glyph(cp).has_value()) v.added.push_back(cp);
  }
  return v;
}

const std::vector<std::string> kRefs = {"oooo", "oaoa", "aooa", "ooao", "aaoo"};

// Homograph registrations of random references: "<ace>.<tld>", IDNs only.
std::vector<std::string> make_registrations(const homoglyph::HomoglyphDb& db,
                                            std::size_t count, util::Rng& rng,
                                            const std::string& tld) {
  std::vector<std::string> out;
  for (std::size_t attempts = 0; out.size() < count && attempts < count * 64;
       ++attempts) {
    const auto& ref = kRefs[rng.below(kRefs.size())];
    unicode::U32String label;
    for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
    const std::size_t at = rng.below(label.size());
    const auto subs = db.homoglyphs_of(label[at]);
    if (subs.empty()) continue;
    label[at] = subs[rng.below(subs.size())];
    auto ace = idna::to_a_label(label);
    if (!ace.starts_with("xn--")) continue;
    out.push_back(std::move(ace) + "." + tld);
  }
  return out;
}

std::string registrations_as_zone(std::span<const std::string> names) {
  std::string text = "$TTL 300\n";
  for (const auto& name : names) {
    text += name + ". IN NS ns1.hoster.net.\n";
    text += name + ". IN A 203.0.113.7\n";  // duplicate owner, dedup target
  }
  return text;
}

TEST(ResidentKib, Reports) { EXPECT_GT(resident_kib(), 0u); }

TEST(StreamZone, BatchesDedupAndFilter) {
  const unicode::U32String guugle{'g', 0x043E, 0x043E, 'g', 'l', 'e'};
  const auto ace = idna::to_a_label(guugle);
  ASSERT_TRUE(ace.starts_with("xn--"));
  const std::string text =
      "$ORIGIN com.\n"
      + ace + " IN NS ns1.x.net.\n"
      + ace + " IN A 1.2.3.4\n"           // same owner: one domain, one IDN
      "plain IN NS ns1.x.net.\n"          // ASCII: counted, not an IDN
      + ace + ".net. IN NS ns1.x.net.\n"  // wrong TLD: not extracted
      "other IN A 1.2.3.5\n";
  const TempZone zone{"test_scale_stream.zone", text};

  std::vector<std::string> seen;
  std::size_t largest_batch = 0;
  const auto stats = stream_zone_idns(
      zone.path(), {.tld = "com", .batch_size = 1},
      [&](std::span<const detect::IdnEntry> batch) {
        largest_batch = std::max(largest_batch, batch.size());
        for (const auto& e : batch) seen.push_back(e.ace);
      });
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.domains, 4u);  // ace.com, plain.com, ace.net, other.com
  EXPECT_EQ(stats.idns, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_LE(largest_batch, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], ace);
}

// The batcher queues for extract_idns only the owners that pass its first
// two tests (".<tld>" suffix, then an ACE prefix). That pre-filter must not
// change what comes out: the same IdnEntry sequence as extract_idns over
// the whole owner list, with every owner still counted.
TEST(StreamZone, PrefilterMatchesExtractIdns) {
  const auto guugle = idna::to_a_label({'g', 0x043E, 0x043E, 'g', 'l', 'e'});
  const auto paypal = idna::to_a_label({'p', 0x0430, 'y', 'p', 'a', 'l'});
  std::string upper_paypal = paypal;
  for (auto& c : upper_paypal) c = static_cast<char>(std::toupper(c));
  const std::string undecodable = "xn--99999999999";
  ASSERT_FALSE(idna::to_u_label(undecodable).has_value());

  const std::string text =
      "$ORIGIN com.\n"
      "$TTL 300\n"
      + guugle + " IN NS ns1.x.net.\n"
      "    IN NS ns2.x.net.\n"                   // continuation line
      + guugle + " IN A 1.2.3.4\n"                // repeated owner
      + guugle + ".net. IN NS ns1.x.net.\n"       // another TLD
      "plain IN NS ns1.x.net.\n"
      + upper_paypal + " IN NS ns1.x.net.\n"      // uppercase XN--
      + guugle + ".example IN NS ns1.x.net.\n"    // xn-- label below the SLD
      "www." + paypal + " IN NS ns1.x.net.\n"     // ACE label, not leftmost
      + undecodable + " IN NS ns1.x.net.\n"
      + undecodable + " IN A 1.2.3.5\n"
      "$ORIGIN org.\n"
      + paypal + " IN NS ns1.x.net.\n"            // another TLD via $ORIGIN
      "$ORIGIN com.\n"
      + paypal + "-2 IN NS ns1.x.net.\n"
      "other IN A 1.2.3.6\n";
  const TempZone zone{"test_scale_prefilter.zone", text};

  // Oracle: every owner in file order, consecutive repeats dropped.
  const auto parsed = dns::parse_zone(text);
  std::vector<std::string> owners;
  for (const auto& r : parsed.records) {
    if (owners.empty() || owners.back() != r.owner.str()) owners.push_back(r.owner.str());
  }
  ASSERT_EQ(owners.size(), parsed.owners().size());  // repeats are consecutive
  const auto expected = core::ShamFinder::extract_idns(owners, "com");
  ASSERT_EQ(expected.size(), 2u);  // guugle and paypal under .com

  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{4096}}) {
    std::vector<detect::IdnEntry> seen;
    std::size_t progress_idns = 0;
    StreamOptions options;
    options.tld = "com";
    options.batch_size = batch;
    options.progress_interval = 1;
    options.on_progress = [&](const StreamProgress& p) { progress_idns = p.idns; };
    const auto stats = stream_zone_idns(
        zone.path(), options, [&](std::span<const detect::IdnEntry> part) {
          seen.insert(seen.end(), part.begin(), part.end());
        });
    ASSERT_EQ(seen.size(), expected.size()) << "batch " << batch;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].ace, expected[i].ace) << "batch " << batch << " entry " << i;
      EXPECT_EQ(seen[i].unicode, expected[i].unicode);
    }
    EXPECT_EQ(stats.records, parsed.records.size());
    EXPECT_EQ(stats.domains, owners.size());
    EXPECT_EQ(stats.idns, expected.size());
    EXPECT_EQ(progress_idns, expected.size());
  }
}

TEST(StreamZone, MissingFileThrows) {
  EXPECT_THROW(stream_zone_idns("/nonexistent/zone.db", {},
                                [](std::span<const detect::IdnEntry>) {}),
               std::runtime_error);
}

TEST(StreamZone, DirectoryThrows) {
  // A directory opens like a file; reading it must fail and name the
  // path, not parse as an empty zone.
  const std::string dir = test::process_temp_dir();
  try {
    (void)stream_zone_idns(dir, {}, [](std::span<const detect::IdnEntry>) {});
    FAIL() << "a directory streamed as a zone";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(dir), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)zone_file_slices(dir, 4, {}), std::runtime_error);
}

TEST(StreamZone, NonRegularFileThrows) {
  // A FIFO without a writer must not block the scan, and /dev/null must not
  // pass for an empty zone, at one slice or several.
  const std::string fifo = test::temp_path("test_scale_zone.fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path : {fifo, std::string{"/dev/null"}}) {
    for (const std::size_t slices : {std::size_t{1}, std::size_t{4}}) {
      try {
        (void)zone_file_slices(path, slices, {});
        ADD_FAILURE() << path << " cut as a zone into " << slices;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find(path), std::string::npos) << e.what();
      }
    }
  }
  std::remove(fifo.c_str());
}

TEST(MergeOutcomes, SortsAndDeduplicates) {
  DetectionOutcome a;
  a.verdicts = {{1, "xn--b", {}}, {0, "xn--a", {}}};
  DetectionOutcome b;
  b.verdicts = {{0, "xn--a", {}}};  // duplicate of a's second verdict
  b.stream.idns = 3;
  auto merged = merge_outcomes({a, b});
  ASSERT_EQ(merged.verdicts.size(), 2u);
  EXPECT_EQ(merged.verdicts[0].reference_index, 0u);
  EXPECT_EQ(merged.verdicts[0].ace, "xn--a");
  EXPECT_EQ(merged.verdicts[1].ace, "xn--b");
  EXPECT_EQ(merged.stream.idns, 3u);

  // Part order must not change the canonical outcome.
  const auto flipped = merge_outcomes({b, a});
  EXPECT_EQ(flipped.verdicts, merged.verdicts);
  EXPECT_EQ(flipped.fingerprint, merged.fingerprint);
  EXPECT_NE(merged.fingerprint, 0u);
}

TEST(StreamVsMaterialized, ByteIdenticalAtEveryBatchSize) {
  const auto fonts = make_versioned(99);
  const auto sim = simchar::SimCharDb::build(*fonts.new_font, {});
  const homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), {}};
  const detect::Engine engine{db};

  util::Rng rng{4242};
  const auto regs = make_registrations(db, 40, rng, "com");
  ASSERT_FALSE(regs.empty());
  const TempZone zone{"test_scale_identity.zone", registrations_as_zone(regs)};

  const auto baseline = detect_materialized(engine, kRefs, zone.path(),
                                            {.tld = "com", .batch_size = 4096},
                                            detect::Strategy::kSerial);
  ASSERT_FALSE(baseline.verdicts.empty());

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    for (const auto strategy : {detect::Strategy::kSerial, detect::Strategy::kSkeleton}) {
      const auto streamed = detect_sharded(
          engine, kRefs, strategy,
          zone_file_slices(zone.path(), 1, {.tld = "com", .batch_size = batch}), 1);
      EXPECT_EQ(streamed.verdicts, baseline.verdicts)
          << "batch " << batch << " strategy " << static_cast<int>(strategy);
      EXPECT_EQ(streamed.fingerprint, baseline.fingerprint);
      EXPECT_EQ(streamed.stream.idns, baseline.stream.idns);
    }
  }
}

TEST(GenerationDiff, DailyFeedMatchesFullRebuild) {
  const auto fonts = make_versioned(515);
  GenerationDiffPipeline pipeline{*fonts.old_font, kRefs};
  util::Rng rng{515};

  // Day 0: registrations only (old font's database).
  DiffBatch day0;
  day0.new_registrations = make_registrations(pipeline.db(), 12, rng, "com");
  const auto r0 = pipeline.apply(day0);
  EXPECT_EQ(r0.db_update.pairs_added, 0u);
  EXPECT_GT(r0.new_idns, 0u);

  // Day 1: the font update lands — new characters join the 'o' component
  // and '0' takes over as its canonical representative.
  DiffBatch day1;
  day1.font = fonts.new_font.get();
  day1.new_characters = fonts.added;
  const auto r1 = pipeline.apply(day1);
  EXPECT_GT(r1.db_update.pairs_added, 0u);
  EXPECT_FALSE(r1.db_update.canonical_changed.empty());
  EXPECT_GT(r1.index_entries_rehashed, 0u);

  // Days 2-3: more registrations against the grown database.
  for (const std::uint64_t day : {2u, 3u}) {
    DiffBatch batch;
    batch.new_registrations =
        make_registrations(pipeline.db(), 12, rng, "com");
    const auto r = pipeline.apply(batch);
    EXPECT_GT(r.new_idns, 0u) << "day " << day;
  }

  // The accumulated incremental state must be indistinguishable from a
  // from-scratch rebuild over the current font — flat pair set, canonical
  // map, skeleton buckets, and detect() verdicts across all strategies.
  const auto eq = verify_against_rebuild(pipeline);
  EXPECT_TRUE(eq.pairs_identical);
  EXPECT_TRUE(eq.canonical_identical);
  EXPECT_TRUE(eq.skeleton_identical);
  EXPECT_TRUE(eq.verdicts_identical);
  EXPECT_TRUE(eq.ok());

  const auto outcome = pipeline.detect(detect::Strategy::kSkeleton);
  EXPECT_FALSE(outcome.verdicts.empty());
}

// --- Intra-zone sharding + generated streams ------------------------------

// Small engine over the versioned fonts, pinned together so the database
// outlives the engine.
struct ShardRig {
  VersionedFonts fonts = make_versioned(99);
  simchar::SimCharDb sim = simchar::SimCharDb::build(*fonts.new_font, {});
  homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), {}};
  detect::Engine engine{db};
};

// The paper-scale environment at reduced font coverage: cheap enough for a
// unit test, rich enough that generated scenarios contain real homographs.
const Environment& env() {
  static const auto instance = [] {
    EnvironmentConfig config;
    config.font_scale = 0.1;
    return Environment::create(config);
  }();
  return instance;
}

internet::ScenarioConfig gen_config(std::uint64_t seed = 77) {
  internet::ScenarioConfig config;
  config.seed = seed;
  config.total_domains = 4'000;
  config.reference_count = 150;
  config.attack_scale = 0.05;
  config.idn_fraction = 0.04;
  return config;
}

TEST(DetectSharded, InvariantAcrossShardCountsAndBatchSizes) {
  const ShardRig rig;
  util::Rng rng{4242};
  const auto regs = make_registrations(rig.db, 60, rng, "com");
  ASSERT_FALSE(regs.empty());
  const TempZone zone{"test_scale_shard.zone", registrations_as_zone(regs)};

  const auto baseline =
      detect_materialized(rig.engine, kRefs, zone.path(), {.tld = "com"},
                          detect::Strategy::kSerial);
  ASSERT_FALSE(baseline.verdicts.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      const auto out = detect_sharded(
          rig.engine, kRefs, detect::Strategy::kSkeleton,
          zone_file_slices(zone.path(), shards, {.tld = "com", .batch_size = batch}),
          shards);
      EXPECT_EQ(out.verdicts, baseline.verdicts)
          << "shards " << shards << " batch " << batch;
      EXPECT_EQ(out.fingerprint, baseline.fingerprint);
      EXPECT_EQ(out.stream.idns, baseline.stream.idns);
    }
  }
}

TEST(DetectSharded, ProducerExceptionPropagates) {
  // One of four slices fails mid-stream; the others finish, and the
  // failure is what detect_sharded reports.
  const ShardRig rig;
  std::vector<BatchProducer> slices(4, [](const BatchSink&) { return ZoneStreamStats{}; });
  slices[2] = [](const BatchSink&) -> ZoneStreamStats {
    throw std::runtime_error{"producer failed mid-stream"};
  };
  EXPECT_THROW(
      (void)detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton, slices, 4),
      std::runtime_error);
}

TEST(DetectSharded, FailedSliceStopsLaterSlices) {
  // One worker takes the slices in order. Slice 2 throws: slices 0-2 run
  // once each, no later slice starts, and slice 2's error comes out.
  const ShardRig rig;
  std::vector<int> starts(8, 0);
  std::vector<BatchProducer> slices;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    slices.emplace_back([&starts, k](const BatchSink&) -> ZoneStreamStats {
      ++starts[k];
      if (k == 2) throw std::runtime_error{"slice 2"};
      if (k > 2) throw std::logic_error{"a slice after the failed one ran"};
      return {};
    });
  }
  try {
    (void)detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton, slices, 1);
    ADD_FAILURE() << "no error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slice 2");
  }
  EXPECT_EQ(starts, (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0}));
}

TEST(DetectSharded, WorkerExceptionUnblocksProducer) {
  // An empty reference label makes every slice's detect() throw
  // std::invalid_argument on its first batch. Every slice must still
  // finish (a hang here fails via the test timeout), and the detect
  // error, not some secondary failure, must come out. A slice that waits
  // for all the others and then fails last proves no slice blocks on
  // another; it needs one worker per slice.
  const ShardRig rig;
  util::Rng rng{7};
  const auto regs = make_registrations(rig.db, 40, rng, "com");
  ASSERT_GT(regs.size(), 8u);
  const TempZone zone{"test_scale_badref.zone", registrations_as_zone(regs)};
  const std::vector<std::string> bad_refs = {""};
  EXPECT_THROW(
      (void)detect_sharded(
          rig.engine, bad_refs, detect::Strategy::kSkeleton,
          zone_file_slices(zone.path(), 4, {.tld = "com", .batch_size = 1}), 4),
      std::invalid_argument);

  std::atomic<int> finished{0};
  std::vector<BatchProducer> slices(4, [&](const BatchSink&) {
    ++finished;
    return ZoneStreamStats{};
  });
  slices[0] = [&](const BatchSink&) -> ZoneStreamStats {
    while (finished.load() < 3) std::this_thread::yield();
    throw std::invalid_argument{"last slice to finish"};
  };
  EXPECT_THROW(
      (void)detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton, slices, 4),
      std::invalid_argument);
  EXPECT_EQ(finished.load(), 3);
}

TEST(DetectGenerated, MatchesStreamedFileAtEveryShardCount) {
  // The generated pipeline (each slice generates its population range
  // straight into its own parser and detects it) must produce the exact
  // outcome of streaming the same text from disk, at every slice count.
  const auto config = gen_config();
  const auto scenario = internet::generate_scenario(env().db_union, config);
  const detect::Engine engine{env().db_union};
  const auto text =
      internet::generate_zone_text(env().db_union, config, {.which = 2});
  const TempZone zone{"test_scale_gen.zone", text};

  const StreamOptions options{.tld = "com", .batch_size = 512};
  const auto baseline =
      detect_sharded(engine, scenario.references, detect::Strategy::kSkeleton,
                     zone_file_slices(zone.path(), 1, options), 1);
  ASSERT_FALSE(baseline.verdicts.empty());

  const auto core = std::make_shared<const internet::ScenarioCore>(
      internet::build_scenario_core(env().db_union, config));
  const internet::ZoneGenOptions gen{.which = 2, .tld = "com", .chunk_bytes = 32 * 1024};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto out =
        detect_sharded(engine, scenario.references, detect::Strategy::kSkeleton,
                       generated_slices(core, gen, shards, options), shards);
    EXPECT_EQ(out.verdicts, baseline.verdicts) << "shards " << shards;
    EXPECT_EQ(out.fingerprint, baseline.fingerprint);
    EXPECT_EQ(out.stream.domains, baseline.stream.domains);
    EXPECT_EQ(out.stream.idns, baseline.stream.idns);
  }
}

TEST(StreamGenerated, ProgressCallbackIsMonotone) {
  const auto config = gen_config();
  std::vector<std::size_t> domains_seen;
  StreamOptions options{.tld = "com", .batch_size = 256,
                        .progress_interval = 500};
  options.on_progress = [&](const StreamProgress& p) {
    domains_seen.push_back(p.domains);
    EXPECT_GT(p.rss_kib, 0u);
  };
  const auto core = std::make_shared<const internet::ScenarioCore>(
      internet::build_scenario_core(env().db_union, config));
  const auto stats = generated_slices(core, {.which = 2, .tld = "com"}, 1, options)
                         .front()([](std::span<const detect::IdnEntry>) {});
  // stream domains counts distinct record owners — population members whose
  // host emits no records (no NS/A/MX) never reach the parser.
  EXPECT_LE(stats.domains, config.total_domains);
  EXPECT_GE(stats.domains, config.total_domains * 9 / 10);
  ASSERT_GE(domains_seen.size(), 2u);
  EXPECT_TRUE(std::is_sorted(domains_seen.begin(), domains_seen.end()));
}

/// A build-db artifact over env()'s databases with `references` embedded.
void write_env_artifact(const std::string& path, std::span<const std::string> references) {
  db::WriteRequest request;
  request.simchar = &env().simchar;
  request.homoglyph = &env().db_union;
  const detect::SkeletonIndex index{env().db_union, references};
  const auto flat = index.to_flat();
  request.references = references;
  request.reference_fingerprint = detect::label_set_fingerprint(references);
  request.skeleton = &flat;
  db::write_db_file(path, request);
}

TEST(Fleet, SyntheticZoneShardInvariant) {
  // A synthetic FleetZone (empty zone_path) generates its zone on the fly
  // from the artifact's own database. The verdict fingerprint must be
  // identical at 1/2/8 shards and equal to the in-process streamed
  // baseline over the same generated text; per-zone timing and peak-RSS
  // fields must be populated.
  const auto config = gen_config();
  const auto scenario = internet::generate_scenario(env().db_union, config);

  const std::string artifact = test::temp_path("test_scale_fleet.artifact");
  write_env_artifact(artifact, scenario.references);

  const detect::Engine in_process{env().db_union};
  const auto text =
      internet::generate_zone_text(env().db_union, config, {.which = 2});
  const TempZone zone{"test_scale_fleet.zone", text};
  const auto baseline = detect_sharded(
      in_process, scenario.references, detect::Strategy::kSkeleton,
      zone_file_slices(zone.path(), 1, {.tld = "com", .batch_size = 512}), 1);
  ASSERT_FALSE(baseline.verdicts.empty());

  std::vector<std::uint64_t> fingerprints;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    FleetOptions options;
    options.db_file = artifact;
    FleetZone synthetic;
    synthetic.tld = "com";
    synthetic.scenario = config;
    synthetic.which = 2;
    synthetic.chunk_bytes = 64 * 1024;
    options.zones = {synthetic};
    options.batch_size = 512;
    options.shards = shards;
    bool progressed = false;
    options.progress_interval = 1'000;
    options.on_progress = [&](const std::string& tld, const StreamProgress&) {
      EXPECT_EQ(tld, "com");
      progressed = true;
    };

    const auto report = run_fleet(options);
    ASSERT_TRUE(report.ok()) << "shards " << shards;
    EXPECT_EQ(report.shards, shards);
    ASSERT_EQ(report.zones.size(), 1u);
    const auto& z = report.zones.front();
    EXPECT_TRUE(z.error.empty());
    // Same generated text as the on-disk baseline => same owner count.
    EXPECT_EQ(z.stream.domains, baseline.stream.domains);
    EXPECT_GT(z.matches, 0u);
    EXPECT_GT(z.seconds, 0.0);
    EXPECT_GT(z.setup_seconds, 0.0);
    EXPECT_GT(z.rss_peak_kib, 0u);
    EXPECT_TRUE(progressed);
    fingerprints.push_back(z.verdict_fingerprint);

    const auto json = report.to_json();
    EXPECT_NE(json.find("\"setup_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"rss_peak_kib\""), std::string::npos);
    EXPECT_NE(json.find("\"shards\""), std::string::npos);
    // The duplicated "bench" key inside the fleet object is gone.
    EXPECT_EQ(json.find("\"bench\""), std::string::npos);
  }
  std::remove(artifact.c_str());

  ASSERT_EQ(fingerprints.size(), 3u);
  EXPECT_EQ(fingerprints[0], baseline.fingerprint);
  EXPECT_EQ(fingerprints[1], fingerprints[0]);
  EXPECT_EQ(fingerprints[2], fingerprints[0]);
}

TEST(Fleet, ShardsOutOfRangeRejectedBeforeLoading) {
  // The artifact does not exist, so a std::invalid_argument (the load
  // would throw std::runtime_error) shows the check ran first.
  FleetOptions options;
  options.db_file = test::temp_path("test_scale_no_such.artifact");
  options.zones = {
      FleetZone{.tld = "com", .zone_path = test::temp_path("test_scale_no_such.zone")}};
  for (const std::size_t shards : {std::size_t{0}, kMaxShards + 1, std::size_t{100'000}}) {
    options.shards = shards;
    try {
      (void)run_fleet(options);
      ADD_FAILURE() << "shards " << shards << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("shards must be 1-256, got " +
                                           std::to_string(shards)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Fleet, DirectoryZoneFails) {
  // A zone path naming a directory is a failed worker with a diagnostic,
  // not a zone with zero domains, at any slice count.
  const std::vector<std::string> refs = {"google", "paypal"};
  const std::string artifact = test::temp_path("test_scale_dirzone.artifact");
  write_env_artifact(artifact, refs);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    FleetZone zone;
    zone.tld = "com";
    zone.zone_path = test::process_temp_dir();
    FleetOptions options;
    options.db_file = artifact;
    options.zones = {zone};
    options.shards = shards;
    const auto report = run_fleet(options);
    EXPECT_FALSE(report.ok()) << "shards " << shards;
    ASSERT_EQ(report.zones.size(), 1u);
    EXPECT_NE(report.zones[0].error.find("directory"), std::string::npos)
        << report.zones[0].error;
    EXPECT_EQ(report.total_domains, 0u);
  }
  std::remove(artifact.c_str());
}

// --- Slice equivalence --------------------------------------------------

/// A seeded random zone holding every hazard a slice boundary can land on:
/// mid-file and indented $ORIGIN/$TTL lines, a '$' in a comment,
/// continuation lines, comments, blank lines, CRLF endings, and owners
/// whose records alternate between forms that normalize alike ("foo.com."
/// then "foo" then "FOO.COM."). `labels` supplies the IDN owners.
std::string random_zone(util::Rng& rng, std::span<const std::string> labels,
                        std::size_t owners) {
  std::string text = "; random zone\n$ORIGIN com.\n$TTL 3600\n";
  std::string origin = "com";
  const auto eol = [&] { return rng.below(4) == 0 ? "\r\n" : "\n"; };
  const auto upper = [](std::string name) {
    for (auto& c : name) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return name;
  };
  for (std::size_t i = 0; i < owners; ++i) {
    switch (rng.below(10)) {
      case 0:
        origin = rng.below(3) == 0 ? "net" : "com";
        text += (rng.below(2) == 0 ? "$ORIGIN " : "  $ORIGIN ") + origin + "." + eol();
        break;
      case 1:
        text += (rng.below(2) == 0 ? "$TTL " : "\t$TTL ") +
                std::to_string(60 + rng.below(7200)) + eol();
        break;
      case 2:
        text += std::string{"; $ORIGIN example. is only a comment"} + eol();
        break;
      case 3:
        text += std::string(rng.below(3), ' ') + eol();
        break;
      default:
        break;
    }
    const std::string label = !labels.empty() && rng.below(3) == 0
                                  ? labels[rng.below(labels.size())]
                                  : "host" + std::to_string(i);
    const std::size_t lines = 1 + rng.below(5);
    for (std::size_t l = 0; l < lines; ++l) {
      std::string line;
      switch (l == 0 ? rng.below(3) : rng.below(6)) {
        case 0:
          line = label;
          break;
        case 1:
          line = label + "." + origin + ".";
          break;
        case 2:
          line = upper(label + "." + origin + ".");
          break;
        default:  // continuation
          line = std::string(1 + rng.below(3), rng.below(2) == 0 ? ' ' : '\t');
          break;
      }
      line += rng.below(2) == 0
                  ? " IN A 192.0.2." + std::to_string(rng.below(256))
                  : " 300 IN NS ns" + std::to_string(rng.below(4)) + ".hoster.net.";
      if (rng.below(6) == 0) line += " ; note";
      text += line + eol();
    }
  }
  if (rng.below(3) == 0) text.pop_back();  // no final newline
  return text;
}

/// IDN labels (ACE, no TLD) of homographs of kRefs under `db`.
std::vector<std::string> idn_labels(const homoglyph::HomoglyphDb& db, util::Rng& rng) {
  auto names = make_registrations(db, 12, rng, "com");
  for (auto& name : names) name.resize(name.size() - 4);  // drop ".com"
  return names;
}

class SliceProperty : public ::testing::TestWithParam<std::uint64_t> {};

// At every slice count from 1 to 33, on 1 to 4 workers, a sliced pass
// yields the records, domains, IDNs and verdicts of a sequential one. The
// counts come from an independent one-shot parse; the verdicts from
// detect_materialized.
TEST_P(SliceProperty, SlicesMatchSequentialAtEveryCount) {
  const ShardRig rig;
  util::Rng rng{GetParam()};
  const auto labels = idn_labels(rig.db, rng);
  ASSERT_FALSE(labels.empty());
  // A large zone, then four with fewer owners than slices.
  for (const std::size_t owners :
       {std::size_t{300}, 1 + rng.below(3), 1 + rng.below(3), 1 + rng.below(3),
        1 + rng.below(3)}) {
    const auto text = random_zone(rng, labels, owners);
    const TempZone zone{"test_scale_slices.zone", text};

    const auto parsed = dns::parse_zone(text);
    std::vector<std::string> domains;
    for (const auto& r : parsed.records) {
      if (domains.empty() || domains.back() != r.owner.str()) {
        domains.push_back(r.owner.str());
      }
    }
    const auto idns = core::ShamFinder::extract_idns(domains, "com");
    const auto baseline = detect_materialized(rig.engine, kRefs, zone.path(),
                                              {.tld = "com"}, detect::Strategy::kSerial);
    if (owners > 100) {
      ASSERT_FALSE(baseline.verdicts.empty());
    }

    for (std::size_t slices = 1; slices <= 33; ++slices) {
      for (std::size_t workers = 1; workers <= 4; ++workers) {
        const StreamOptions options{.tld = "com", .batch_size = 1 + rng.below(8)};
        const auto out =
            detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton,
                           zone_file_slices(zone.path(), slices, options), workers);
        const auto where = ::testing::Message() << "owners " << owners << " slices "
                                                << slices << " workers " << workers;
        EXPECT_EQ(out.stream.records, parsed.records.size()) << where;
        EXPECT_EQ(out.stream.domains, domains.size()) << where;
        EXPECT_EQ(out.stream.idns, idns.size()) << where;
        EXPECT_EQ(out.verdicts, baseline.verdicts) << where;
        EXPECT_EQ(out.fingerprint, baseline.fingerprint) << where;
      }
    }
  }
}

// A malformed line anywhere raises, at every slice count from 1 to 33 on
// 1 to 4 workers, the error a sequential parse raises: the same absolute
// line and the same message. A second malformed line after it must never
// win.
TEST_P(SliceProperty, MalformedLineSameErrorAtEveryCount) {
  const ShardRig rig;
  util::Rng rng{GetParam() ^ 0xBADULL};
  const auto labels = idn_labels(rig.db, rng);
  const std::vector<std::string> malformed = {
      "bad IN A not-an-ip", "$TTL forever",  "  $ORIGIN",
      "bad..name IN A 192.0.2.1", "odd IN BOGUS x", "$ORIGIN a..b."};
  for (int round = 0; round < 4; ++round) {
    std::vector<std::string> lines;
    {
      const auto text = random_zone(rng, labels, 150);
      std::size_t begin = 0;
      while (begin <= text.size()) {
        const auto nl = text.find('\n', begin);
        if (nl == std::string::npos) {
          if (begin < text.size()) lines.push_back(text.substr(begin));
          break;
        }
        lines.push_back(text.substr(begin, nl - begin));
        begin = nl + 1;
      }
    }
    const std::size_t first = rng.below(lines.size() + 1);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(first),
                 malformed[rng.below(malformed.size())]);
    const std::size_t second = first + 1 + rng.below(lines.size() - first);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(second),
                 malformed[rng.below(malformed.size())]);
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    const TempZone zone{"test_scale_malformed.zone", text};

    std::size_t expected_line = 0;
    std::string expected_what;
    try {
      (void)dns::parse_zone(text);
      FAIL() << "the malformed zone parsed";
    } catch (const dns::ZoneParseError& e) {
      expected_line = e.line();
      expected_what = e.what();
    }
    EXPECT_EQ(expected_line, first + 1);

    for (std::size_t slices = 1; slices <= 33; ++slices) {
      for (std::size_t workers = 1; workers <= 4; ++workers) {
        const auto where = ::testing::Message() << "round " << round << " slices " << slices
                                                << " workers " << workers;
        try {
          (void)detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton,
                               zone_file_slices(zone.path(), slices, {.tld = "com"}),
                               workers);
          ADD_FAILURE() << "no error; " << where;
        } catch (const dns::ZoneParseError& e) {
          EXPECT_EQ(e.line(), expected_line) << where;
          EXPECT_EQ(std::string{e.what()}, expected_what) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceProperty, ::testing::Values(1u, 42u, 2019u, 77777u));

// A line longer than one mapping lies before most cuts. It is the directive
// that moves the origin to com, padded past util::kMaxMapBytes, so the
// slice holding it is mapped in windows and the directive crosses from one
// window into the next: the IDN owners after it count only if the windowed
// scan found it. Every slice after it walks back over it to the last owner,
// a walk that must stay linear in the line's length. At 4 workers the
// slices must match one slice, which parses the line in windows too.
TEST(Slices, LineLongerThanAMappingBeforeTheCuts) {
  const ShardRig rig;
  util::Rng rng{4096};
  const auto labels = idn_labels(rig.db, rng);
  ASSERT_FALSE(labels.empty());
  std::string text = "$ORIGIN net.\n$TTL 300\n";
  for (int i = 0; i < 2000; ++i) text += "host" + std::to_string(i) + " IN NS ns1.hoster.net.\n";
  text += "$ORIGIN com." + std::string(util::kMaxMapBytes + (1 << 20), ' ') + "; long\n";
  for (std::size_t i = 0; i < 2000; ++i) {
    text += (i % 2 == 0 ? labels[i / 2 % labels.size()] : "after" + std::to_string(i)) +
            " IN NS ns1.hoster.net.\n  IN A 192.0.2.1\n";
  }
  const TempZone zone{"test_scale_long_line.zone", text};
  const StreamOptions options{.tld = "com", .batch_size = 64};

  const auto one = detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton,
                                  zone_file_slices(zone.path(), 1, options), 1);
  EXPECT_EQ(one.stream.records, 2000u + 2 * 2000u);
  EXPECT_EQ(one.stream.domains, 4000u);
  ASSERT_GT(one.stream.idns, 0u);
  ASSERT_FALSE(one.verdicts.empty());
  for (const std::size_t slices : {std::size_t{4}, std::size_t{32}}) {
    const auto out = detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton,
                                    zone_file_slices(zone.path(), slices, options), 4);
    EXPECT_EQ(out.stream.records, one.stream.records) << "slices " << slices;
    EXPECT_EQ(out.stream.domains, one.stream.domains) << "slices " << slices;
    EXPECT_EQ(out.stream.idns, one.stream.idns) << "slices " << slices;
    EXPECT_EQ(out.verdicts, one.verdicts) << "slices " << slices;
    EXPECT_EQ(out.fingerprint, one.fingerprint) << "slices " << slices;
  }
}

// A zone of ordinary lines over twice the mapping cap, cut into 2 slices:
// each slice is larger than one mapping, so it is scanned and parsed in
// windows, and record lines cross the window edges. The directive that
// moves the origin to com starts 4 bytes before slice 0's first window
// edge: the IDN owners after it count only if the windowed scan carried
// it into the next window.
TEST(Slices, SlicesLargerThanAMappingAreReadInWindows) {
  const ShardRig rig;
  util::Rng rng{2048};
  const auto labels = idn_labels(rig.db, rng);
  ASSERT_FALSE(labels.empty());
  const std::string tail = " IN NS ns1.hoster.net. ; " + std::string(1000, 'x') + "\n";
  std::string text = "$ORIGIN net.\n$TTL 300\n";
  std::size_t net = 0;
  for (;; ++net) {
    const auto line = "host" + std::to_string(net) + tail;
    if (text.size() + line.size() > util::kMaxMapBytes - 8) break;
    text += line;
  }
  text += ";" + std::string(util::kMaxMapBytes - 4 - text.size() - 2, 'z') + "\n";
  ASSERT_EQ(text.size(), util::kMaxMapBytes - 4);
  text += "$ORIGIN com.\n";
  std::size_t com = 0;
  for (; text.size() <= 2 * util::kMaxMapBytes + (1 << 20); ++com) {
    text += (com % 2 == 0 ? labels[com / 2 % labels.size()] : "after" + std::to_string(com)) +
            tail + "  IN A 192.0.2.1\n";
  }
  const TempZone zone{"test_scale_big_slices.zone", text};
  const StreamOptions options{.tld = "com", .batch_size = 64};

  const auto one = detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton,
                                  zone_file_slices(zone.path(), 1, options), 1);
  EXPECT_EQ(one.stream.records, net + 2 * com);
  EXPECT_EQ(one.stream.domains, net + com);
  ASSERT_GT(one.stream.idns, 0u);
  ASSERT_FALSE(one.verdicts.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const auto out = detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton,
                                    zone_file_slices(zone.path(), 2, options), workers);
    EXPECT_EQ(out.stream.records, one.stream.records) << "workers " << workers;
    EXPECT_EQ(out.stream.domains, one.stream.domains) << "workers " << workers;
    EXPECT_EQ(out.stream.idns, one.stream.idns) << "workers " << workers;
    EXPECT_EQ(out.verdicts, one.verdicts) << "workers " << workers;
    EXPECT_EQ(out.fingerprint, one.fingerprint) << "workers " << workers;
  }
}

// A zone file that shrinks after it is cut: a slice whose range it lost
// fails before it maps, naming the path, the slices after it fail without
// waiting for it forever, and that error is the one reported.
TEST(Slices, FileTruncatedAfterTheCutFailsNamingThePath) {
  const ShardRig rig;
  util::Rng rng{99};
  const auto text = random_zone(rng, idn_labels(rig.db, rng), 400);
  const TempZone zone{"test_scale_truncated.zone", text};
  const auto producers = zone_file_slices(zone.path(), 16, {.tld = "com"});
  std::filesystem::resize_file(zone.path(), text.size() / 3);
  try {
    (void)detect_sharded(rig.engine, kRefs, detect::Strategy::kSkeleton, producers, 4);
    ADD_FAILURE() << "a truncated zone scanned";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(zone.path()), std::string::npos) << what;
    EXPECT_NE(what.find("shrank while read"), std::string::npos) << what;
  }
}

TEST(Slices, ProgressIsSerializedAndMonotone) {
  // Slices report concurrently; the callback must never run twice at once
  // and must see zone-wide totals that never decrease and never exceed the
  // zone, for file and generated slices alike.
  const auto config = gen_config();
  const auto text = internet::generate_zone_text(env().db_union, config, {.which = 2});
  const TempZone zone{"test_scale_progress.zone", text};
  const auto sequential = stream_zone_idns(zone.path(), {.tld = "com"},
                                           [](std::span<const detect::IdnEntry>) {});
  const auto core = std::make_shared<const internet::ScenarioCore>(
      internet::build_scenario_core(env().db_union, config));

  for (const bool generated : {false, true}) {
    std::atomic<bool> inside{false};
    std::vector<StreamProgress> seen;
    StreamOptions options{.tld = "com", .batch_size = 64, .progress_interval = 97};
    options.on_progress = [&](const StreamProgress& p) {
      EXPECT_FALSE(inside.exchange(true));
      seen.push_back(p);
      std::this_thread::yield();
      inside = false;
    };
    const auto slices = generated ? generated_slices(core, {.which = 2}, 4, options)
                                  : zone_file_slices(zone.path(), 4, options);
    const detect::Engine engine{env().db_union};
    const auto out = detect_sharded(engine, std::vector<std::string>{"google"},
                                    detect::Strategy::kSkeleton, slices, 4);
    EXPECT_EQ(out.stream.domains, sequential.domains) << "generated " << generated;
    ASSERT_GE(seen.size(), 4u) << "generated " << generated;
    for (std::size_t i = 1; i < seen.size(); ++i) {
      EXPECT_GE(seen[i].domains, seen[i - 1].domains);
      EXPECT_GE(seen[i].idns, seen[i - 1].idns);
      EXPECT_GE(seen[i].records, seen[i - 1].records);
    }
    EXPECT_LE(seen.back().domains, sequential.domains);
    EXPECT_LE(seen.back().idns, sequential.idns);
  }
}

TEST(GenerationDiff, NoOpBatchKeepsStateIdentical) {
  const auto fonts = make_versioned(7);
  GenerationDiffPipeline pipeline{*fonts.old_font, kRefs};
  const auto before = pipeline.db().generation();
  const auto r = pipeline.apply({});
  EXPECT_EQ(r.db_update.pairs_added, 0u);
  EXPECT_EQ(r.index_entries_rehashed, 0u);
  EXPECT_EQ(r.new_idns, 0u);
  EXPECT_TRUE(verify_against_rebuild(pipeline).ok());
  EXPECT_EQ(pipeline.db().generation(), before);
}

}  // namespace
}  // namespace sham::measure
