// The DB artifact (db/format.hpp, db/artifact.hpp): write -> mmap ->
// adopt round trips, loader hardening against corrupt input, the
// publish-by-rename contract, artifacts written by earlier writers, and
// copy-on-write when an adopted structure is mutated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/artifact.hpp"
#include "db/format.hpp"
#include "detect/engine.hpp"
#include "detect/skeleton_index.hpp"
#include "font/synthetic_font.hpp"
#include "simchar/simchar.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace sham {
namespace {

using unicode::CodePoint;
using unicode::U32String;

// --- Shared fixture data --------------------------------------------------

simchar::SimCharDb small_simchar() {
  return simchar::SimCharDb{{
      {'o', 0x043E, 0},
      {'o', 0x0585, 2},
      {'e', 0x00E9, 3},
      {'a', 0x0430, 1},
      {'i', 0x0131, 2},
      {0x043E, 0x04E7, 4},
  }};
}

homoglyph::HomoglyphDb small_db() {
  homoglyph::DbConfig config;
  config.use_uc = false;
  return homoglyph::HomoglyphDb{small_simchar(), unicode::ConfusablesDb::embedded(),
                                config};
}

struct Workload {
  std::vector<std::string> refs;
  std::vector<detect::IdnEntry> idns;
};

Workload small_workload(std::uint64_t seed, std::size_t ref_count = 40,
                        std::size_t idn_count = 400) {
  Workload w;
  util::Rng rng{seed};
  for (std::size_t i = 0; i < ref_count; ++i) {
    std::string name;
    const std::size_t n = 3 + rng.below(8);
    for (std::size_t j = 0; j < n; ++j) name += static_cast<char>('a' + rng.below(26));
    w.refs.push_back(name);
  }
  const CodePoint subs[] = {0x043E, 0x0585, 0x00E9, 0x0430, 0x0131, 0x04E7, 'x'};
  for (std::size_t i = 0; i < idn_count; ++i) {
    const auto& ref = w.refs[rng.below(w.refs.size())];
    U32String label;
    for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
    const std::size_t muts = 1 + rng.below(2);
    for (std::size_t m = 0; m < muts; ++m) {
      label[rng.below(label.size())] = subs[rng.below(std::size(subs))];
    }
    w.idns.push_back({"", label});
  }
  return w;
}

std::string temp_path(const std::string& name) {
  return test::temp_path("sham_" + name + ".artifact");
}

/// Write the small databases (plus a reference skeleton index, and the
/// panel fields when `panel` is set) to a fresh artifact file and return
/// its path.
std::string write_small_artifact(const std::string& name,
                                 const simchar::SimCharDb& sim,
                                 const homoglyph::HomoglyphDb& db,
                                 std::span<const std::string> refs,
                                 const simchar::RepertoirePanel* panel = nullptr) {
  const auto path = temp_path(name);
  db::WriteRequest request;
  request.simchar = &sim;
  request.homoglyph = &db;
  if (panel != nullptr) {
    request.panel = &panel->panel;
    request.glyph_cps = panel->cps;
    request.glyph_popcounts = panel->popcounts;
  }
  db::SkeletonFlat skeleton;
  if (!refs.empty()) {
    const detect::SkeletonIndex index{db, refs};
    skeleton = index.to_flat();
    request.references = refs;
    request.reference_fingerprint = detect::label_set_fingerprint(refs);
    request.skeleton = &skeleton;
  }
  db::write_db_file(path, request);
  return path;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, {}};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Index of the section-table entry carrying `tag` in artifact `bytes`.
std::optional<std::uint32_t> section_index(const std::vector<char>& bytes,
                                           std::uint32_t tag) {
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 32, 4);
  for (std::uint32_t s = 0; s < section_count; ++s) {
    std::uint32_t t = 0;
    std::memcpy(&t, bytes.data() + 64 + s * sizeof(db::SectionEntry), 4);
    if (t == tag) return s;
  }
  return std::nullopt;
}

// --- Format basics --------------------------------------------------------

TEST(DbFormat, HeaderIsOneCacheLineAndMagicSpellsShamdb) {
  static_assert(sizeof(db::FileHeader) == 64);
  static_assert(sizeof(db::SectionEntry) == 32);
  char magic[9] = {};
  std::memcpy(magic, &db::kMagic, 8);
  EXPECT_STREQ(magic, "SHAMDB1");
}

TEST(DbFormat, Fnv1a64MatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(db::fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(db::fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(db::fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(DbFormat, SpanReaderRejectsOverflowingCounts) {
  alignas(8) const std::byte buf[16] = {};
  db::SpanReader reader{buf, sizeof(buf), "test"};
  // A count chosen so count * sizeof(T) wraps a 64-bit size_t; the divide-
  // based bound check must still reject it.
  EXPECT_THROW((void)reader.array<std::uint64_t>(~0ULL / 4), std::runtime_error);
}

// --- Round trip: databases ------------------------------------------------

TEST(DbArtifact, SimCharRoundTripsByteIdentically) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto path = write_small_artifact("simchar_rt", sim, db, {});
  const auto artifact = db::DbArtifact::load(path);

  const auto view = artifact.simchar();
  EXPECT_TRUE(view.is_view());
  EXPECT_FALSE(sim.is_view());
  EXPECT_TRUE(std::ranges::equal(view.pairs(), sim.pairs()));
  EXPECT_EQ(view.serialize(), sim.serialize());
  EXPECT_EQ(view.characters(), sim.characters());
  for (const auto& p : sim.pairs()) {
    EXPECT_TRUE(view.are_homoglyphs(p.a, p.b));
    EXPECT_TRUE(view.are_homoglyphs(p.b, p.a));
    EXPECT_EQ(view.delta_of(p.a, p.b), sim.delta_of(p.a, p.b));
    EXPECT_EQ(view.homoglyphs_of(p.a), sim.homoglyphs_of(p.a));
  }
  EXPECT_FALSE(view.are_homoglyphs('q', 'w'));
  std::remove(path.c_str());
}

TEST(DbArtifact, HomoglyphDbRoundTripsByteIdentically) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto path = write_small_artifact("hgdb_rt", sim, db, {});
  const auto artifact = db::DbArtifact::load(path);

  const auto view = artifact.homoglyph();
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.serialize(), db.serialize());
  EXPECT_EQ(view.pair_count(), db.pair_count());
  EXPECT_EQ(view.character_count(), db.character_count());
  EXPECT_EQ(view.canonical_class_count(), db.canonical_class_count());
  EXPECT_EQ(view.generation(), db.generation());
  EXPECT_EQ(artifact.generation(), db.generation());
  // canonical() must agree everywhere it matters: the latin1 fast path,
  // every mapped character, and unmapped code points.
  for (CodePoint cp = 0; cp < 0x500; ++cp) {
    EXPECT_EQ(view.canonical(cp), db.canonical(cp)) << "cp=" << cp;
  }
  for (const auto& p : sim.pairs()) {
    EXPECT_EQ(view.source_of(p.a, p.b), db.source_of(p.a, p.b));
    EXPECT_EQ(view.homoglyphs_of(p.a), db.homoglyphs_of(p.a));
  }
  EXPECT_EQ(view.revert_to_ascii(U32String{0x043E, 'k'}),
            db.revert_to_ascii(U32String{0x043E, 'k'}));
  std::remove(path.c_str());
}

TEST(DbArtifact, ReferencesAndFingerprintRoundTrip) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const std::vector<std::string> refs{"google", "amazon", "facebook"};
  const auto path = write_small_artifact("refs_rt", sim, db, refs);
  const auto artifact = db::DbArtifact::load(path);
  EXPECT_EQ(artifact.references(), refs);
  EXPECT_EQ(artifact.reference_fingerprint(),
            detect::label_set_fingerprint(std::span<const std::string>{refs}));
  EXPECT_TRUE(artifact.has_skeleton());
  std::remove(path.c_str());
}

// --- Round trip: skeleton index -------------------------------------------

TEST(DbArtifact, AdoptedSkeletonProbesIdenticallyToFreshBuild) {
  const auto db = small_db();
  const auto w = small_workload(42);
  const auto path =
      write_small_artifact("skel_rt", small_simchar(), db, w.refs);
  const auto artifact = db::DbArtifact::load(path);

  const detect::SkeletonIndex fresh{db, std::span<const std::string>{w.refs}};
  const auto adopted =
      detect::SkeletonIndex::adopt_view(db, artifact.skeleton(), artifact.backing());
  EXPECT_TRUE(adopted.is_view());
  EXPECT_EQ(adopted.entry_count(), fresh.entry_count());
  EXPECT_EQ(adopted.bucket_count(), fresh.bucket_count());
  EXPECT_EQ(adopted.occupancy_histogram(), fresh.occupancy_histogram());
  // Probe with every reference and every IDN: identical candidate sets.
  for (const auto& ref : w.refs) {
    const auto a = adopted.probe(adopted.hash_of(ref));
    const auto b = fresh.probe(fresh.hash_of(ref));
    EXPECT_TRUE(std::ranges::equal(a, b)) << ref;
  }
  for (const auto& idn : w.idns) {
    const auto a = adopted.probe(adopted.hash_of(idn.unicode));
    const auto b = fresh.probe(fresh.hash_of(idn.unicode));
    EXPECT_TRUE(std::ranges::equal(a, b));
  }
  std::remove(path.c_str());
}

// --- Round trip: detect() across strategies and cache states -------------

TEST(DbArtifact, DetectByteIdenticalAcrossStrategiesLevelsAndCacheStates) {
  const auto db = small_db();
  const auto w = small_workload(7);
  const auto path =
      write_small_artifact("detect_rt", small_simchar(), db, w.refs);

  const detect::Engine in_process{db};
  const auto baseline = in_process.detect(
      {.references = w.refs, .idns = w.idns, .strategy = detect::Strategy::kSerial});
  ASSERT_FALSE(baseline.matches.empty());

  const detect::Strategy strategies[] = {detect::Strategy::kSerial,
                                         detect::Strategy::kSkeleton};
  const auto engine = detect::Engine::from_db_file(path);
  for (const auto strategy : strategies) {
    // Cold then warm: the response memo and cached indexes must not
    // change the bytes.
    for (int pass = 0; pass < 2; ++pass) {
      const auto r = engine.detect(
          {.references = w.refs, .idns = w.idns, .strategy = strategy});
      EXPECT_EQ(r.matches, baseline.matches)
          << "strategy=" << detect::strategy_name(strategy) << " pass=" << pass;
    }
  }
  std::remove(path.c_str());
}

TEST(DbArtifact, EngineCacheIsPreSeededWithTheArtifactSkeleton) {
  const auto db = small_db();
  const auto w = small_workload(11);
  const auto path =
      write_small_artifact("seed_rt", small_simchar(), db, w.refs);
  const auto engine = detect::Engine::from_db_file(path);
  ASSERT_NE(engine.artifact(), nullptr);
  // First skeleton query against the artifact's own reference list: the
  // pre-seeded index is a cache hit — no skeleton build at all.
  const auto r = engine.detect({.references = engine.artifact()->references(),
                                .idns = w.idns,
                                .strategy = detect::Strategy::kSkeleton});
  EXPECT_EQ(r.stats.index_cache_hits, 1u);
  EXPECT_EQ(r.stats.index_cache_rebuilds, 0u);
  EXPECT_EQ(r.stats.skeleton_build_seconds, 0.0);
  const detect::Engine fresh{db};
  const auto serial = fresh.detect(
      {.references = w.refs, .idns = w.idns, .strategy = detect::Strategy::kSerial});
  EXPECT_EQ(r.matches, serial.matches);
  std::remove(path.c_str());
}

// --- Writer: no glyph panel ------------------------------------------------

// Nothing reads a glyph panel, so the writer no longer emits one: a request
// that still fills the panel fields writes exactly the bytes of the same
// request without them.
TEST(DbArtifact, WriterIgnoresThePanelFields) {
  font::SyntheticFontBuilder b{515};
  b.plant_cluster('o', {{0x043E, 1}, {0x0585, 3}});
  const auto rendered = simchar::render_repertoire_panel(*b.build());
  ASSERT_GT(rendered.cps.size(), 0u);

  const auto sim = small_simchar();
  const auto db = small_db();
  const std::vector<std::string> refs{"google", "mail", "ok"};
  const auto plain = write_small_artifact("panel_unset", sim, db, refs);
  const auto with_panel = write_small_artifact("panel_set", sim, db, refs, &rendered);
  const auto plain_bytes = slurp(plain);
  ASSERT_FALSE(plain_bytes.empty());
  EXPECT_EQ(slurp(with_panel), plain_bytes);
  EXPECT_FALSE(section_index(plain_bytes, db::kSecGlyphPanel).has_value());
  std::remove(plain.c_str());
  std::remove(with_panel.c_str());
}

// --- Copy-on-write on mutation --------------------------------------------

TEST(DbArtifact, ViewHomoglyphDbMaterializesOnUpdate) {
  const auto owned = small_db();
  const auto path = write_small_artifact("cow_db", small_simchar(), owned, {});
  const auto artifact = db::DbArtifact::load(path);

  auto view = artifact.homoglyph();
  ASSERT_TRUE(view.is_view());
  auto reference = small_db();
  const simchar::HomoglyphPair extra[] = {{'k', 'x', 1}, {0x0431, 'b', 2}};
  const auto view_result = view.apply_update(extra);
  const auto ref_result = reference.apply_update(extra);
  EXPECT_FALSE(view.is_view());
  EXPECT_EQ(view_result.pairs_added, ref_result.pairs_added);
  EXPECT_EQ(view_result.canonical_changed, ref_result.canonical_changed);
  EXPECT_EQ(view.serialize(), reference.serialize());
  EXPECT_EQ(view.generation(), reference.generation());
  for (CodePoint cp = 0; cp < 0x500; ++cp) {
    EXPECT_EQ(view.canonical(cp), reference.canonical(cp)) << "cp=" << cp;
  }
  std::remove(path.c_str());
}

TEST(DbArtifact, ViewSkeletonIndexCopiesOnRehash) {
  auto db = small_db();
  const auto w = small_workload(99);
  const auto path = write_small_artifact("cow_skel", small_simchar(), db, w.refs);
  const auto artifact = db::DbArtifact::load(path);

  auto adopted =
      detect::SkeletonIndex::adopt_view(db, artifact.skeleton(), artifact.backing());
  detect::SkeletonIndex fresh{db, std::span<const std::string>{w.refs}};
  ASSERT_TRUE(adopted.is_view());
  const std::span<const std::string> labels{w.refs};
  const auto expect_probes_match = [&] {
    for (const auto& ref : w.refs) {
      EXPECT_TRUE(std::ranges::equal(adopted.probe(adopted.hash_of(ref)),
                                     fresh.probe(fresh.hash_of(ref))))
          << ref;
    }
  };

  // U+0436 joins z's component; no reference contains it, so no entry
  // moves and the index keeps reading the mapping.
  const simchar::HomoglyphPair no_move[] = {{'z', 0x0436, 2}};
  auto update = db.apply_update(no_move);
  EXPECT_EQ(adopted.rehash_changed(labels, update.canonical_changed),
            fresh.rehash_changed(labels, update.canonical_changed));
  EXPECT_TRUE(adopted.is_view());
  expect_probes_match();

  // {b, k} moves k's representative to b: every reference containing k
  // rehashes, so the index copies its arrays into memory.
  const simchar::HomoglyphPair moves[] = {{'b', 'k', 2}};
  update = db.apply_update(moves);
  ASSERT_EQ(update.canonical_changed, std::vector<CodePoint>{'k'});
  const auto adopted_touched = adopted.rehash_changed(labels, update.canonical_changed);
  EXPECT_EQ(adopted_touched, fresh.rehash_changed(labels, update.canonical_changed));
  EXPECT_GT(adopted_touched, 0u);
  EXPECT_FALSE(adopted.is_view());
  expect_probes_match();
  EXPECT_EQ(adopted.to_flat(),
            (detect::SkeletonIndex{db, std::span<const std::string>{w.refs}}.to_flat()));
  std::remove(path.c_str());
}

// --- Publish-by-rename contract (write_db_file) ----------------------------

TEST(DbArtifact, RenamePublishNeverDisturbsALiveReader) {
  // A mapped artifact must survive the file being republished under it:
  // write_db_file renames a new file over the path, so the reader's
  // mapping keeps the old inode. Rewriting the file in place instead
  // would change what the reader sees (or SIGBUS it on truncation).
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto w = small_workload(23);
  const std::vector<std::string> refs_old{w.refs.begin(), w.refs.begin() + 20};
  const std::vector<std::string> refs_new{w.refs.begin() + 20, w.refs.end()};
  const auto path = write_small_artifact("republish", sim, db, refs_old);

  // Memo off: every call reads the mapped homoglyph DB. The skeleton calls
  // alternate between two IDN sets (all IDNs, all but the last), so none
  // repeats the IDN set of the one before it and each probes the mapped
  // reference index.
  const auto reader = detect::Engine::from_db_file(path, {.result_cache_capacity = 0});
  const std::vector<detect::IdnEntry> idn_sets[] = {w.idns,
                                                    {w.idns.begin(), w.idns.end() - 1}};
  const auto query = [&](detect::Strategy strategy, std::size_t set) {
    const auto r = reader.detect({.references = reader.artifact()->references(),
                                  .idns = idn_sets[set],
                                  .strategy = strategy});
    if (strategy == detect::Strategy::kSkeleton) {
      EXPECT_TRUE(r.stats.inverted_join);
      EXPECT_EQ(r.stats.index_cache_hits, 1u);
    }
    return r.matches;
  };
  std::vector<detect::Match> first_serial[2];
  std::vector<detect::Match> first_skeleton[2];
  for (std::size_t set = 0; set < 2; ++set) {
    first_serial[set] = query(detect::Strategy::kSerial, set);
    first_skeleton[set] = query(detect::Strategy::kSkeleton, set);
    ASSERT_FALSE(first_serial[set].empty());
    ASSERT_EQ(first_skeleton[set], first_serial[set]);
  }

  std::atomic<bool> published{false};
  std::thread publisher{[&] {
    for (int i = 0; i < 6; ++i) write_small_artifact("republish", sim, db, refs_new);
    published = true;
  }};
  std::size_t reads = 0;
  std::size_t mismatches = 0;
  while (!published.load() || reads < 20) {
    const auto set = reads % 2;
    if (query(detect::Strategy::kSerial, set) != first_serial[set]) ++mismatches;
    if (query(detect::Strategy::kSkeleton, set) != first_skeleton[set]) ++mismatches;
    ++reads;
  }
  publisher.join();
  EXPECT_EQ(mismatches, 0u) << "over " << reads << " read rounds";
  EXPECT_EQ(reader.artifact()->references(), refs_old);

  const auto fresh = detect::Engine::from_db_file(path);
  EXPECT_EQ(fresh.artifact()->references(), refs_new);
  std::remove(path.c_str());
}

TEST(DbArtifact, ConcurrentWritersToOnePathEachPublishAWholeArtifact) {
  // Each writer stages its bytes in a file of its own, so two writers
  // racing on one path both succeed, the published file is always one of
  // the two artifacts whole, and no staging file outlives its write.
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto w = small_workload(47);
  const std::vector<std::string> refs_a{w.refs.begin(), w.refs.begin() + 20};
  const std::vector<std::string> refs_b{w.refs.begin() + 20, w.refs.end()};
  const auto expected_a = slurp(write_small_artifact("racer_a", sim, db, refs_a));
  const auto expected_b = slurp(write_small_artifact("racer_b", sim, db, refs_b));
  ASSERT_NE(expected_a, expected_b);

  const std::string name = "racers";
  const auto path = temp_path(name);
  const auto file_name = std::filesystem::path{path}.filename().string();
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ready{0};
    std::string errors[2];
    const auto writer = [&](int id, const std::vector<std::string>& refs) {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      try {
        (void)write_small_artifact(name, sim, db, refs);
      } catch (const std::exception& e) {
        errors[id] = e.what();
      }
    };
    std::thread a{writer, 0, std::cref(refs_a)};
    std::thread b{writer, 1, std::cref(refs_b)};
    a.join();
    b.join();
    EXPECT_EQ(errors[0], "") << "round " << round;
    EXPECT_EQ(errors[1], "") << "round " << round;
    try {
      (void)db::DbArtifact::load(path);
    } catch (const std::runtime_error& e) {
      ADD_FAILURE() << "round " << round << ": " << e.what();
    }
    const auto published = slurp(path);
    EXPECT_TRUE(published == expected_a || published == expected_b) << "round " << round;
    for (const auto& entry :
         std::filesystem::directory_iterator{std::filesystem::path{path}.parent_path()}) {
      const auto entry_name = entry.path().filename().string();
      EXPECT_FALSE(entry_name.starts_with(file_name) && entry_name != file_name)
          << "round " << round << ": staging file left behind: " << entry_name;
    }
  }
  std::remove(path.c_str());
  std::remove(temp_path("racer_a").c_str());
  std::remove(temp_path("racer_b").c_str());
}

// --- Loader hardening ------------------------------------------------------

class DbCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = small_db();
    w_ = small_workload(1234);
    path_ = write_small_artifact("corrupt", small_simchar(), db_, w_.refs);
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 256u);
    const auto engine = detect::Engine::from_db_file(path_);
    baseline_ = engine.detect({.references = w_.refs, .idns = w_.idns}).matches;
    ASSERT_FALSE(baseline_.empty());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutated_path().c_str());
  }

  std::string mutated_path() const { return path_ + ".mut"; }

  /// Write `bytes` and expect the loader to reject them with a
  /// std::runtime_error carrying a non-empty diagnostic.
  void expect_rejected(const std::vector<char>& bytes, const std::string& what) {
    spit(mutated_path(), bytes);
    try {
      (void)db::DbArtifact::load(mutated_path());
      FAIL() << what << ": corrupt artifact loaded successfully";
    } catch (const std::runtime_error& e) {
      EXPECT_GT(std::strlen(e.what()), 0u) << what;
    }
  }

  /// Patch 8 bytes at `offset` and recompute both header checksums so only
  /// the targeted validation can fire.
  std::vector<char> patched_header(std::size_t offset, std::uint64_t value,
                                   std::size_t width = 8) const {
    auto bytes = bytes_;
    std::memcpy(bytes.data() + offset, &value, width);
    const auto checksum = db::fnv1a64(bytes.data(), 56);
    std::memcpy(bytes.data() + 56, &checksum, 8);
    return bytes;
  }

  /// Byte offset of the section-table entry carrying `tag`.
  std::size_t entry_offset(std::uint32_t tag) const {
    const auto s = section_index(bytes_, tag);
    if (!s.has_value()) {
      ADD_FAILURE() << "section tag not present in the fixture artifact";
      return 0;
    }
    return 64 + *s * sizeof(db::SectionEntry);
  }

  /// Recompute the section-table and header checksums after a patch, so the
  /// file is self-consistent and only the targeted validation can fire.
  static void reseal(std::vector<char>& bytes) {
    std::uint32_t section_count = 0;
    std::memcpy(&section_count, bytes.data() + 32, 4);
    const auto table_checksum =
        db::fnv1a64(bytes.data() + 64, section_count * sizeof(db::SectionEntry));
    std::memcpy(bytes.data() + 40, &table_checksum, 8);
    const auto checksum = db::fnv1a64(bytes.data(), 56);
    std::memcpy(bytes.data() + 56, &checksum, 8);
  }

  homoglyph::HomoglyphDb db_;
  Workload w_;
  std::string path_;
  std::vector<char> bytes_;
  std::vector<detect::Match> baseline_;
};

TEST_F(DbCorruption, RejectsWrongMagicEndianVersionAndHeaderShape) {
  expect_rejected(patched_header(0, 0x0031424D414853ULL), "magic");
  expect_rejected(patched_header(8, 0x04030201, 4), "endianness");
  expect_rejected(patched_header(12, db::kFormatVersion + 1, 4), "version");
  expect_rejected(patched_header(24, bytes_.size() + 64), "file_size");
  expect_rejected(patched_header(36, 128, 4), "header_bytes");
  // A plain header bit flip without a checksum fix-up.
  auto flipped = bytes_;
  flipped[17] = static_cast<char>(flipped[17] ^ 0x01);
  expect_rejected(flipped, "header checksum");
}

TEST_F(DbCorruption, RejectsMisalignedAndOutOfBoundsSections) {
  // Section entry 0 starts at byte 64; offset field at +8, size at +16.
  const auto patch_section = [&](std::size_t field_offset, std::uint64_t value) {
    auto bytes = bytes_;
    std::memcpy(bytes.data() + 64 + field_offset, &value, 8);
    std::uint32_t section_count = 0;
    std::memcpy(&section_count, bytes.data() + 32, 4);
    const auto table_checksum =
        db::fnv1a64(bytes.data() + 64, section_count * sizeof(db::SectionEntry));
    std::memcpy(bytes.data() + 40, &table_checksum, 8);
    const auto checksum = db::fnv1a64(bytes.data(), 56);
    std::memcpy(bytes.data() + 56, &checksum, 8);
    return bytes;
  };
  std::uint64_t offset0 = 0;
  std::memcpy(&offset0, bytes_.data() + 64 + 8, 8);
  expect_rejected(patch_section(8, offset0 + 1), "misaligned section offset");
  expect_rejected(patch_section(8, bytes_.size() + 64), "out-of-bounds offset");
  expect_rejected(patch_section(16, ~0ULL - 32), "overflowing section size");
  // Flipping a section-table byte without recomputing the table checksum.
  auto table_flip = bytes_;
  table_flip[64 + 4] = static_cast<char>(table_flip[64 + 4] ^ 0x10);
  expect_rejected(table_flip, "section table checksum");
}

TEST_F(DbCorruption, RejectsEveryTruncation) {
  const std::size_t sizes[] = {0,  1,  13, 63,
                               64, sizeof(db::FileHeader) + 16,
                               bytes_.size() / 2, bytes_.size() - 1};
  for (const auto keep : sizes) {
    expect_rejected({bytes_.begin(), bytes_.begin() + static_cast<long>(keep)},
                    "truncated to " + std::to_string(keep));
  }
}

TEST_F(DbCorruption, BitFlipFuzzNeverYieldsUbOrSilentlyWrongResults) {
  // Flip one random bit anywhere in the file: the load must either throw
  // (any checksummed byte — header, table, payload) or, when the flip
  // lands in an unread alignment gap between sections, produce results
  // byte-identical to the pristine artifact. Nothing else is acceptable.
  util::Rng rng{20260808};
  std::size_t rejected = 0;
  std::size_t harmless = 0;
  for (int i = 0; i < 120; ++i) {
    auto bytes = bytes_;
    const std::size_t byte_at = rng.below(bytes.size());
    bytes[byte_at] = static_cast<char>(bytes[byte_at] ^ (1u << rng.below(8)));
    spit(mutated_path(), bytes);
    try {
      const auto engine = detect::Engine::from_db_file(mutated_path());
      const auto r = engine.detect({.references = w_.refs, .idns = w_.idns});
      EXPECT_EQ(r.matches, baseline_) << "byte " << byte_at;
      ++harmless;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // The file is overwhelmingly checksummed payload; the fuzz loop must
  // actually have exercised the rejection path.
  EXPECT_GT(rejected, 60u);
  EXPECT_EQ(rejected + harmless, 120u);
}

TEST_F(DbCorruption, RejectsDuplicateSections) {
  // Retag the SKEL table entry as a second REFS section. Checksums stay
  // self-consistent (they cover whatever bytes are there), so only the
  // duplicate-section check can reject the file — without it, last-one-wins
  // would let one REFS list carry another list's header fingerprint.
  auto bytes = bytes_;
  const auto at = entry_offset(db::kSecSkeleton);
  const std::uint32_t refs_tag = db::kSecReferences;
  std::memcpy(bytes.data() + at, &refs_tag, 4);
  reseal(bytes);
  expect_rejected(bytes, "duplicate REFS section");
}

TEST_F(DbCorruption, RejectsReferenceCountOverflow) {
  // The REFS payload leads with the label count; UINT64_MAX makes the
  // `count + 1` offsets read wrap to an empty span, and offsets.back()
  // would read out of bounds without the overflow guard.
  auto bytes = bytes_;
  const auto at = entry_offset(db::kSecReferences);
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::memcpy(&offset, bytes.data() + at + 8, 8);
  std::memcpy(&size, bytes.data() + at + 16, 8);
  const std::uint64_t count = ~0ULL;
  std::memcpy(bytes.data() + offset, &count, 8);
  const auto payload_checksum =
      db::fnv1a64(bytes.data() + offset, static_cast<std::size_t>(size));
  std::memcpy(bytes.data() + at + 24, &payload_checksum, 8);
  reseal(bytes);
  expect_rejected(bytes, "reference count overflow");
}

TEST_F(DbCorruption, RejectsArtifactsMissingMandatorySections) {
  // Keep the header but declare zero sections: mandatory SIMC/HGDB absent.
  auto bytes = patched_header(32, 0, 4);
  std::uint64_t zero = 0;
  std::memcpy(bytes.data() + 40, &zero, 8);  // empty table hashes as empty
  const auto table_checksum = db::fnv1a64(bytes.data() + 64, 0);
  std::memcpy(bytes.data() + 40, &table_checksum, 8);
  const auto checksum = db::fnv1a64(bytes.data(), 56);
  std::memcpy(bytes.data() + 56, &checksum, 8);
  expect_rejected(bytes, "missing mandatory sections");
}

TEST(DbArtifactErrors, LoadOfMissingAndEmptyFilesThrows) {
  EXPECT_THROW((void)db::DbArtifact::load(temp_path("nonexistent")),
               std::runtime_error);
  const auto path = temp_path("empty");
  { std::ofstream out{path, std::ios::trunc}; }
  EXPECT_THROW((void)db::DbArtifact::load(path), std::runtime_error);
  std::remove(path.c_str());
}

// A hostile artifact is self-consistent by construction — checksums and
// fingerprints are computable by anyone — so the loader must pin the SKEL
// section to the REFS labels it indexes. Entries are indexes into the
// reference list: a skeleton larger than the list would hand detect()
// out-of-bounds reference reads, not just wrong answers.
TEST(DbArtifactErrors, RejectsSkeletonLargerThanItsReferenceList) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto w = small_workload(31);
  const auto path = temp_path("hostile_skel");
  const detect::SkeletonIndex index{db, std::span<const std::string>{w.refs}};
  const auto skeleton = index.to_flat();
  const std::vector<std::string> short_refs{w.refs.begin(), w.refs.begin() + 3};
  db::WriteRequest request;
  request.simchar = &sim;
  request.homoglyph = &db;
  request.references = short_refs;
  request.reference_fingerprint =
      detect::label_set_fingerprint(std::span<const std::string>{short_refs});
  request.skeleton = &skeleton;
  db::write_db_file(path, request);
  EXPECT_THROW((void)db::DbArtifact::load(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Write `refs` with a hand-edited SKEL section. The writer computes every
/// checksum and the entry count still matches the REFS list, so the raw
/// load succeeds and adopt_view's structural checks are the rejection point.
void expect_skeleton_rejected(const std::string& name,
                              std::span<const std::string> refs,
                              const db::SkeletonFlat& skeleton) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto path = temp_path(name);
  db::WriteRequest request;
  request.simchar = &sim;
  request.homoglyph = &db;
  request.references = refs;
  request.reference_fingerprint = detect::label_set_fingerprint(refs);
  request.skeleton = &skeleton;
  db::write_db_file(path, request);
  EXPECT_NO_THROW((void)db::DbArtifact::load(path));
  try {
    (void)detect::Engine::from_db_file(path);
    ADD_FAILURE() << name << ": hostile SKEL section accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("SkeletonIndex: flat view"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

/// References with one repeat: "google" (entries 0 and 2) shares a bucket.
const std::vector<std::string> kRepeatRefs{"google", "mail", "google", "ok"};

/// The flat index over kRepeatRefs and the position of google's bucket.
std::pair<db::SkeletonFlat, std::size_t> repeat_refs_flat() {
  const auto db = small_db();
  auto flat = detect::SkeletonIndex{db, std::span<const std::string>{kRepeatRefs}}.to_flat();
  const auto b = static_cast<std::size_t>(
      std::lower_bound(flat.bucket_hashes.begin(), flat.bucket_hashes.end(),
                       flat.entry_hashes[0]) -
      flat.bucket_hashes.begin());
  return {std::move(flat), b};
}

// An entry listed twice would make detect() report its match twice; an
// entry listed nowhere would be missed until the first update rebuilds
// the buckets from entry_hashes.
TEST(DbArtifactErrors, RejectsSkeletonEntryInNoBucketOrInTwo) {
  {
    auto [flat, b] = repeat_refs_flat();
    flat.bucket_entries.insert(flat.bucket_entries.begin() + flat.bucket_offsets[b], 0);
    for (auto i = b + 1; i < flat.bucket_offsets.size(); ++i) ++flat.bucket_offsets[i];
    expect_skeleton_rejected("skel_twice", kRepeatRefs, flat);
  }
  {
    auto [flat, b] = repeat_refs_flat();
    ASSERT_EQ(flat.bucket_offsets[b + 1] - flat.bucket_offsets[b], 2u);
    flat.bucket_entries.erase(flat.bucket_entries.begin() + flat.bucket_offsets[b] + 1);
    for (auto i = b + 1; i < flat.bucket_offsets.size(); ++i) --flat.bucket_offsets[i];
    expect_skeleton_rejected("skel_missing", kRepeatRefs, flat);
  }
}

// rehash_changed() re-buckets every entry under its own entry hash, so an
// entry filed elsewhere would answer probes differently after the first
// update.
TEST(DbArtifactErrors, RejectsSkeletonEntryUnderAnotherHash) {
  auto [flat, b] = repeat_refs_flat();
  flat.entry_hashes[1] = flat.bucket_hashes[b];  // "mail" still sits in its own bucket
  expect_skeleton_rejected("skel_other_hash", kRepeatRefs, flat);
}

TEST(DbArtifactErrors, RejectsSkeletonWrongNonEmptyBucketCount) {
  auto flat = repeat_refs_flat().first;
  ++flat.non_empty_buckets;
  expect_skeleton_rejected("skel_bucket_count", kRepeatRefs, flat);
}

// tests/data/skel_split_v1.artifact was written by the last writer that
// split oversized buckets: 3 SimChar pairs, UC off, 9 references with
// repeats and an occupancy cap of 1, so its SKEL section carries 3
// split buckets, 7 child entries and 9 secondary hashes. The reader skips
// those retired fields; the bucket arrays alone must answer.
TEST(DbArtifactCompat, SplitBucketV1ArtifactStillLoads) {
  const auto artifact = std::make_shared<const db::DbArtifact>(db::DbArtifact::load(
      std::string{SHAM_TEST_DATA_DIR} + "/skel_split_v1.artifact"));
  ASSERT_TRUE(artifact->has_skeleton());
  const auto& refs = artifact->references();
  ASSERT_EQ(refs.size(), 9u);

  const auto db = artifact->homoglyph();
  const detect::SkeletonIndex fresh{db, std::span<const std::string>{refs}};
  EXPECT_EQ(detect::SkeletonIndex::adopt_view(db, artifact->skeleton(), artifact->backing())
                .to_flat(),
            fresh.to_flat());

  const std::vector<detect::IdnEntry> idns{
      {"", {'g', 0x043E, 'o', 'g', 'l', 'e'}},
      {"", {'m', 0x0430, 'i', 'l'}},
      {"", {0x043E, 'k'}},
      {"", {'c', 0x0430, 't'}},
      {"", {'d', 0x043E, 'g'}},
  };
  const auto engine = detect::Engine::from_db_artifact(artifact, {.threads = 1});
  const auto seeded = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(seeded.stats.index_cache_hits, 1u);
  const auto serial = engine.detect(
      {.references = refs, .idns = idns, .strategy = detect::Strategy::kSerial});
  EXPECT_EQ(seeded.matches, serial.matches);
  EXPECT_FALSE(serial.matches.empty());
}

// tests/data/panel_v1.artifact was written by the last writer that
// appended a glyph-panel (GPAN) section: small_simchar(), small_db() (UC
// off), the WriterOutputUnchanged references with a default skeleton
// index, and the panel of a 5-glyph SyntheticFontBuilder{515} font with
// clusters planted at 'o' and 'a'. The reader verifies the GPAN checksum
// and skips the section.
TEST(DbArtifactCompat, PanelV1ArtifactStillLoads) {
  const auto fixture = std::string{SHAM_TEST_DATA_DIR} + "/panel_v1.artifact";
  const auto artifact =
      std::make_shared<const db::DbArtifact>(db::DbArtifact::load(fixture));
  const auto db = small_db();
  EXPECT_EQ(artifact->simchar().serialize(), small_simchar().serialize());
  EXPECT_EQ(artifact->homoglyph().serialize(), db.serialize());
  const auto& refs = artifact->references();
  ASSERT_EQ(refs.size(), 8u);

  // Each reference with every substitutable character swapped, plus one
  // label that spoofs nothing.
  std::vector<detect::IdnEntry> idns;
  for (const auto& ref : refs) {
    U32String label{ref.begin(), ref.end()};
    for (auto& c : label) {
      const auto subs = db.homoglyphs_of(c);
      if (!subs.empty()) c = subs.front();
    }
    idns.push_back({"", label});
  }
  idns.push_back({"", {'c', 0x0430, 't'}});
  const auto engine = detect::Engine::from_db_artifact(artifact, {.threads = 1});
  const auto mapped = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(mapped.stats.index_cache_hits, 1u);
  const detect::Engine in_process{db};
  const auto expected = in_process.detect(
      {.references = refs, .idns = idns, .strategy = detect::Strategy::kSerial});
  EXPECT_FALSE(expected.matches.empty());
  EXPECT_EQ(mapped.matches, expected.matches);

  // The skipped section is still checksummed: one flipped payload byte
  // rejects the file.
  auto bytes = slurp(fixture);
  const auto gpan = section_index(bytes, db::kSecGlyphPanel);
  ASSERT_TRUE(gpan.has_value());
  db::SectionEntry entry;
  std::memcpy(&entry, bytes.data() + 64 + *gpan * sizeof(entry), sizeof(entry));
  ASSERT_GT(entry.size, 0u);
  bytes[entry.offset + entry.size / 2] ^= 0x01;
  const auto flipped = temp_path("panel_v1_flipped");
  spit(flipped, bytes);
  try {
    (void)db::DbArtifact::load(flipped);
    ADD_FAILURE() << "flipped GPAN payload accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("section " + std::to_string(*gpan) +
                                         " checksum mismatch"),
              std::string::npos)
        << e.what();
  }
  std::remove(flipped.c_str());
}

// tests/data/small_v1.artifact was written by the hash-map implementation
// of HomoglyphDb and SkeletonIndex from small_simchar(), small_db() (UC
// off) and these references with a default skeleton index. The writer
// must keep producing exactly these bytes.
TEST(DbArtifactCompat, WriterOutputUnchanged) {
  const std::vector<std::string> refs{"google", "mail",  "paypal", "google",
                                      "ok",     "apple", "amazon", "coinbase"};
  const auto path = write_small_artifact("writer_compat", small_simchar(), small_db(), refs);
  const auto written = slurp(path);
  const auto pinned = slurp(std::string{SHAM_TEST_DATA_DIR} + "/small_v1.artifact");
  ASSERT_FALSE(pinned.empty());
  EXPECT_EQ(written, pinned);
  std::remove(path.c_str());
}

TEST(DbArtifactErrors, EngineRejectsMismatchedReferenceFingerprint) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto w = small_workload(32);
  const auto path = temp_path("bad_fingerprint");
  const detect::SkeletonIndex index{db, std::span<const std::string>{w.refs}};
  const auto skeleton = index.to_flat();
  db::WriteRequest request;
  request.simchar = &sim;
  request.homoglyph = &db;
  request.references = w.refs;
  request.reference_fingerprint =
      detect::label_set_fingerprint(std::span<const std::string>{w.refs}) ^ 1;
  request.skeleton = &skeleton;
  db::write_db_file(path, request);
  // The db layer cannot recompute detect's content hash, so the raw load
  // succeeds; the engine — whose reference-side cache the fingerprint
  // keys — is the rejection point.
  EXPECT_NO_THROW((void)db::DbArtifact::load(path));
  EXPECT_THROW((void)detect::Engine::from_db_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(DbArtifactErrors, RejectsFingerprintWithoutReferences) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto path = write_small_artifact("fp_no_refs", sim, db, {});
  auto bytes = slurp(path);
  const std::uint64_t fake = 0xDEADBEEFULL;
  std::memcpy(bytes.data() + 48, &fake, 8);
  const auto checksum = db::fnv1a64(bytes.data(), 56);
  std::memcpy(bytes.data() + 56, &checksum, 8);
  spit(path, bytes);
  EXPECT_THROW((void)db::DbArtifact::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(DbArtifactErrors, WriterRejectsMalformedRequests) {
  const auto sim = small_simchar();
  const auto db = small_db();
  const auto path = temp_path("invalid_req");
  db::WriteRequest no_simchar;
  no_simchar.homoglyph = &db;
  EXPECT_THROW(db::write_db_file(path, no_simchar), std::invalid_argument);
  db::WriteRequest no_db;
  no_db.simchar = &sim;
  EXPECT_THROW(db::write_db_file(path, no_db), std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sham
