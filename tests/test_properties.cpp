// Cross-cutting property tests (parameterized sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "db/artifact.hpp"
#include "detect/detector.hpp"
#include "detect/engine.hpp"
#include "detect/skeleton_index.hpp"
#include "font/synthetic_font.hpp"
#include "idna/idna.hpp"
#include "kernels/kernels.hpp"
#include "simchar/simchar.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace sham {
namespace {

using unicode::CodePoint;
using unicode::U32String;

std::shared_ptr<font::SyntheticFont> property_font() {
  static const auto font = [] {
    font::SyntheticFontBuilder b{8080};
    b.cover_range(0x0430, 0x04FF, 120);
    b.cover_range(0x4E00, 0x4EFF, 120);
    b.plant_cluster('o', {{0x043E, 0}, {0x03BF, 1}, {0x0585, 3}, {0x04E7, 5},
                          {0x1D0F, 7}});
    b.plant_cluster('e', {{0x0435, 2}, {0x00E9, 4}, {0x025B, 6}});
    b.plant_sparse(0x0E47, 5);
    return b.build();
  }();
  return font;
}

// --- SimChar threshold sweep --------------------------------------------

class ThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweep, PrunedEqualsNaiveAtEveryTheta) {
  const int theta = GetParam();
  simchar::BuildOptions pruned;
  pruned.threshold = theta;
  simchar::BuildOptions naive = pruned;
  naive.pair_strategy = simchar::PairStrategy::kAllPairs;
  const auto a = simchar::SimCharDb::build(*property_font(), pruned);
  const auto b = simchar::SimCharDb::build(*property_font(), naive);
  EXPECT_TRUE(std::ranges::equal(a.pairs(), b.pairs()));
}

TEST_P(ThresholdSweep, DbGrowsMonotonicallyWithTheta) {
  const int theta = GetParam();
  if (theta == 0) return;
  simchar::BuildOptions lo;
  lo.threshold = theta - 1;
  simchar::BuildOptions hi;
  hi.threshold = theta;
  const auto db_lo = simchar::SimCharDb::build(*property_font(), lo);
  const auto db_hi = simchar::SimCharDb::build(*property_font(), hi);
  EXPECT_GE(db_hi.pair_count(), db_lo.pair_count());
  // Every pair at the lower threshold survives at the higher one.
  for (const auto& p : db_lo.pairs()) {
    EXPECT_TRUE(db_hi.are_homoglyphs(p.a, p.b));
  }
}

TEST_P(ThresholdSweep, RecordedDeltasRespectTheta) {
  const int theta = GetParam();
  simchar::BuildOptions options;
  options.threshold = theta;
  const auto db = simchar::SimCharDb::build(*property_font(), options);
  for (const auto& p : db.pairs()) {
    EXPECT_LE(p.delta, theta);
    EXPECT_GE(p.delta, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ThresholdSweep, ::testing::Range(0, 9));

// --- Detector invariances -------------------------------------------------

homoglyph::HomoglyphDb property_db() {
  homoglyph::DbConfig config;
  config.use_uc = false;
  return homoglyph::HomoglyphDb{simchar::SimCharDb::build(*property_font()),
                                unicode::ConfusablesDb::embedded(), config};
}

std::vector<detect::IdnEntry> random_idns(util::Rng& rng, std::size_t count) {
  std::vector<detect::IdnEntry> idns;
  const CodePoint subs[] = {0x043E, 0x03BF, 0x0585, 0x0435, 0x00E9};
  const std::vector<std::string> words{"oe", "ooze", "geese", "noodle", "zebra"};
  for (std::size_t i = 0; i < count; ++i) {
    const auto& word = words[rng.below(words.size())];
    U32String label;
    for (const char c : word) label.push_back(static_cast<unsigned char>(c));
    label[rng.below(label.size())] = subs[rng.below(std::size(subs))];
    idns.push_back({idna::to_a_label(label), label});
  }
  return idns;
}

class DetectorInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorInvariance, IdnOrderPermutationPreservesMatchSet) {
  util::Rng rng{GetParam()};
  const auto db = property_db();
  const detect::Engine engine{
      db, {.strategy = detect::Strategy::kSerial, .cache = false}};
  const std::vector<std::string> refs{"oe", "ooze", "geese", "noodle"};
  auto idns = random_idns(rng, 120);

  const auto key_set = [&](const std::vector<detect::Match>& matches,
                           const std::vector<detect::IdnEntry>& entries) {
    std::vector<std::string> keys;
    for (const auto& m : matches) {
      keys.push_back(refs[m.reference_index] + "|" + entries[m.idn_index].ace);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  const auto before =
      key_set(engine.detect({.references = refs, .idns = idns}).matches, idns);
  auto shuffled = idns;
  rng.shuffle(shuffled);
  const auto after = key_set(
      engine.detect({.references = refs, .idns = shuffled}).matches, shuffled);
  EXPECT_EQ(before, after);
}

TEST_P(DetectorInvariance, MatchImpliesSkeletalAgreementOfLengths) {
  util::Rng rng{GetParam()};
  const auto db = property_db();
  const detect::Engine engine{
      db, {.strategy = detect::Strategy::kSerial, .cache = false}};
  const std::vector<std::string> refs{"oe", "ooze", "geese"};
  const auto idns = random_idns(rng, 80);
  for (const auto& m : engine.detect({.references = refs, .idns = idns}).matches) {
    EXPECT_EQ(refs[m.reference_index].size(), idns[m.idn_index].unicode.size());
    EXPECT_FALSE(m.diffs.empty());
    for (const auto& d : m.diffs) {
      EXPECT_TRUE(db.are_homoglyphs(d.idn_char, d.ref_char));
      EXPECT_LT(d.index, idns[m.idn_index].unicode.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorInvariance, ::testing::Values(21, 22, 23));

// --- Skeleton strategy vs serial on randomized databases ------------------

/// Random pair graph over a small alphabet, built so that chains (hence
/// non-transitive triples a~b, b~c with {a, c} unlisted) are common; plus
/// random reference/IDN workloads drawn over the same alphabet.
struct RandomSkeletonWorkload {
  simchar::SimCharDb sim;  // the SimChar side of db (the artifact writer needs it)
  homoglyph::HomoglyphDb db;
  std::vector<std::string> refs;
  std::vector<detect::IdnEntry> idns;
};

RandomSkeletonWorkload random_skeleton_workload(std::uint64_t seed) {
  util::Rng rng{seed};
  RandomSkeletonWorkload w;

  // Alphabet: ASCII a..j plus ten non-Latin stand-ins.
  std::vector<CodePoint> alphabet;
  for (char c = 'a'; c <= 'j'; ++c) alphabet.push_back(static_cast<CodePoint>(c));
  for (int i = 0; i < 10; ++i) alphabet.push_back(0x0430 + i);

  std::vector<simchar::HomoglyphPair> pairs;
  const std::size_t pair_count = 8 + rng.below(10);
  for (std::size_t i = 0; i < pair_count; ++i) {
    const auto a = alphabet[rng.below(alphabet.size())];
    const auto b = alphabet[rng.below(alphabet.size())];
    if (a == b) continue;
    const auto [lo, hi] = std::minmax(a, b);
    pairs.push_back({lo, hi, static_cast<int>(rng.below(4))});
  }
  homoglyph::DbConfig config;
  config.use_uc = false;  // keep the pair graph exactly the random one
  w.sim = simchar::SimCharDb{std::move(pairs)};
  w.db = homoglyph::HomoglyphDb{w.sim, unicode::ConfusablesDb::embedded(), config};

  for (int i = 0; i < 30; ++i) {
    std::string ref;
    const std::size_t n = 2 + rng.below(6);
    for (std::size_t j = 0; j < n; ++j) {
      ref += static_cast<char>('a' + rng.below(10));
    }
    w.refs.push_back(ref);
  }
  for (int i = 0; i < 300; ++i) {
    const auto& ref = w.refs[rng.below(w.refs.size())];
    U32String label;
    for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
    // Mutate 1-2 positions with arbitrary alphabet members: sometimes a
    // listed homoglyph, sometimes a same-component non-pair (the
    // non-transitive case), sometimes junk.
    const std::size_t muts = 1 + rng.below(2);
    for (std::size_t m = 0; m < muts; ++m) {
      label[rng.below(label.size())] = alphabet[rng.below(alphabet.size())];
    }
    w.idns.push_back({"", label});
  }
  return w;
}

class SkeletonEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkeletonEquivalence, ByteIdenticalToSerialOnRandomizedDbs) {
  const auto w = random_skeleton_workload(GetParam());
  for (const std::size_t threads : {1u, 4u}) {
    const detect::Engine engine{w.db, {.threads = threads}};
    const auto serial = engine.detect(
        {.references = w.refs, .idns = w.idns, .strategy = detect::Strategy::kSerial});
    const auto skel = engine.detect({.references = w.refs, .idns = w.idns});
    EXPECT_EQ(skel.matches, serial.matches) << "seed=" << GetParam()
                                            << " threads=" << threads;
    EXPECT_EQ(skel.stats.skeleton_rejected,
              skel.stats.skeleton_candidates - serial.matches.size());
  }
}

TEST_P(SkeletonEquivalence, CollisionBucketsStayExactOnRandomizedDbs) {
  // Truncated hashes force unrelated skeletons into shared buckets; the
  // exact verification must still reproduce the serial match list.
  const auto w = random_skeleton_workload(GetParam() ^ 0x5EED);
  const detect::SkeletonIndex index{w.db, w.idns, {.hash_bits = 3}};
  EXPECT_LE(index.bucket_count(), 8u);

  const detect::HomographDetector detector{w.db};
  std::vector<detect::Match> matches;
  std::vector<detect::DiffChar> diffs;
  for (std::size_t r = 0; r < w.refs.size(); ++r) {
    const auto bucket = index.probe(index.hash_of(w.refs[r]));
    if (bucket.empty()) continue;
    for (const auto x : bucket) {
      if (detector.match_pair(w.refs[r], w.idns[x].unicode, &diffs)) {
        matches.push_back({r, x, diffs});
      }
    }
  }
  const detect::Engine engine{w.db};
  const auto serial = engine.detect(
      {.references = w.refs, .idns = w.idns, .strategy = detect::Strategy::kSerial});
  EXPECT_EQ(matches, serial.matches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkeletonEquivalence,
                         ::testing::Values(101, 102, 103, 104, 105));

// --- Engine cache invalidation under randomized interleavings --------------

/// Two long-lived caching engines, one on 1 thread and one on 4, are
/// driven in lockstep through a random interleaving of detect() calls,
/// in-place database growth (apply_update — the layer under
/// update_with_new_characters), and in-place IDN-set mutations (the span
/// address never changes, so only the content fingerprint can catch the
/// swap). After every detect() each warm engine must be byte-identical to
/// a freshly-constructed uncached serial engine over the same state. The
/// engines pick the join themselves; every walk must take both directions.
class CacheInvalidationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheInvalidationProperty, WarmEngineTracksFreshSerialBaseline) {
  auto w = random_skeleton_workload(GetParam());
  util::Rng rng{GetParam() * 7919 + 17};

  std::vector<CodePoint> alphabet;
  for (char c = 'a'; c <= 'j'; ++c) alphabet.push_back(static_cast<CodePoint>(c));
  for (int i = 0; i < 10; ++i) alphabet.push_back(0x0430 + i);

  const detect::Engine warm_engines[] = {
      detect::Engine{w.db, {.strategy = detect::Strategy::kSkeleton, .threads = 1}},
      detect::Engine{w.db, {.strategy = detect::Strategy::kSkeleton, .threads = 4}}};
  bool took_join[2] = {false, false};  // indexed by inverted_join
  int detects = 0;
  for (int step = 0; step < 48; ++step) {
    const auto action = rng.below(4);
    if (action == 0) {
      // Grow the homoglyph graph by one random pair (sometimes a
      // duplicate, which must not bump the generation).
      const auto a = alphabet[rng.below(alphabet.size())];
      const auto b = alphabet[rng.below(alphabet.size())];
      if (a == b) continue;
      const auto [lo, hi] = std::minmax(a, b);
      const simchar::HomoglyphPair pair[] = {
          {lo, hi, static_cast<int>(rng.below(4))}};
      w.db.apply_update(pair);
      continue;
    }
    if (action == 1) {
      // Mutate the IDN set in place behind the engine's back.
      const std::size_t muts = 1 + rng.below(5);
      for (std::size_t m = 0; m < muts; ++m) {
        auto& label = w.idns[rng.below(w.idns.size())].unicode;
        label[rng.below(label.size())] = alphabet[rng.below(alphabet.size())];
      }
      continue;
    }
    ++detects;
    const detect::Engine fresh{
        w.db,
        {.strategy = detect::Strategy::kSerial, .threads = 1, .cache = false}};
    const auto want = fresh.detect({.references = w.refs, .idns = w.idns});
    bool inverted[2] = {false, false};
    for (int e = 0; e < 2; ++e) {
      const auto got = warm_engines[e].detect({.references = w.refs, .idns = w.idns});
      ASSERT_EQ(got.matches, want.matches)
          << "seed=" << GetParam() << " step=" << step
          << " threads=" << warm_engines[e].options().threads;
      // The closure over-approximates: every candidate either matched or
      // was rejected by the exact re-verification, nothing is dropped.
      EXPECT_EQ(got.stats.skeleton_rejected,
                got.stats.skeleton_candidates - got.matches.size());
      inverted[e] = got.stats.inverted_join;
    }
    // The join follows the call history, never the thread count.
    EXPECT_EQ(inverted[0], inverted[1]) << "seed=" << GetParam() << " step=" << step;
    took_join[inverted[0]] = true;
  }
  // The interleaving must actually have exercised the warm path, and both
  // join directions.
  EXPECT_GE(detects, 5) << "seed " << GetParam() << " produced a degenerate walk";
  EXPECT_TRUE(took_join[0] && took_join[1])
      << "seed " << GetParam() << " took only the "
      << (took_join[1] ? "inverted" : "forward") << " join";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheInvalidationProperty,
                         ::testing::Values(301, 302, 303, 304, 305));

// --- DB-artifact round trip on randomized databases -------------------------

/// build -> serialize -> mmap-load -> detect() must be byte-identical to
/// the in-process serial baseline under every strategy and both cache
/// states (cold and warm), on randomized pair graphs and workloads.
class DbRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbRoundTripProperty, MappedDetectTracksSerialBaselineEverywhere) {
  const auto w = random_skeleton_workload(GetParam());
  const auto path =
      test::temp_path("sham_roundtrip_" + std::to_string(GetParam()) + ".artifact");
  {
    db::WriteRequest request;
    request.simchar = &w.sim;
    request.homoglyph = &w.db;
    const detect::SkeletonIndex index{w.db, std::span<const std::string>{w.refs}};
    const auto skeleton = index.to_flat();
    request.references = w.refs;
    request.reference_fingerprint =
        detect::label_set_fingerprint(std::span<const std::string>{w.refs});
    request.skeleton = &skeleton;
    db::write_db_file(path, request);
  }
  const detect::Engine in_process{w.db};
  const auto baseline = in_process.detect(
      {.references = w.refs, .idns = w.idns, .strategy = detect::Strategy::kSerial});

  const detect::Strategy strategies[] = {detect::Strategy::kSerial,
                                         detect::Strategy::kSkeleton};
  const auto engine = detect::Engine::from_db_file(path);
  EXPECT_EQ(engine.artifact()->references(), w.refs);
  for (const auto strategy : strategies) {
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm caches
      const auto r = engine.detect(
          {.references = w.refs, .idns = w.idns, .strategy = strategy});
      EXPECT_EQ(r.matches, baseline.matches)
          << "seed=" << GetParam() << " strategy=" << detect::strategy_name(strategy)
          << " pass=" << pass;
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbRoundTripProperty,
                         ::testing::Values(501, 502, 503, 504, 505));

// --- Incremental updates against a rebuild ----------------------------------

void expect_same_arrays(const homoglyph::HomoglyphDb::Flat& got,
                        const homoglyph::HomoglyphDb::Flat& want, const std::string& where) {
  EXPECT_EQ(got.pair_keys, want.pair_keys) << where;
  EXPECT_EQ(got.pair_sources, want.pair_sources) << where;
  EXPECT_EQ(got.adj_cps, want.adj_cps) << where;
  EXPECT_EQ(got.adj_offsets, want.adj_offsets) << where;
  EXPECT_EQ(got.adj_data, want.adj_data) << where;
  EXPECT_EQ(got.canon_keys, want.canon_keys) << where;
  EXPECT_EQ(got.canon_reps, want.canon_reps) << where;
  EXPECT_EQ(got.canonical_classes, want.canonical_classes) << where;
}

/// Random apply_update batches over a 24-character Latin/Cyrillic alphabet
/// (duplicates, widenings from both sources, bridges between components
/// and chords inside one). After every call:
///   - canonical_changed is exactly the set of code points whose
///     canonical() moved (brute force over U+0000..U+04FF);
///   - the database equals a reparse of its own text form;
///   - a built index and an index adopted from flat storage, both patched
///     by rehash_changed, equal a fresh index over the updated database.
class UpdateEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpdateEquivalence, EveryUpdateMatchesARebuild) {
  util::Rng rng{GetParam()};
  std::vector<CodePoint> alphabet;
  for (char c = 'a'; c <= 'l'; ++c) alphabet.push_back(static_cast<CodePoint>(c));
  for (CodePoint c = 0x0430; c < 0x043C; ++c) alphabet.push_back(c);
  const auto pick = [&] { return alphabet[rng.below(alphabet.size())]; };

  std::vector<simchar::HomoglyphPair> seed_pairs;
  for (int i = 0; i < 4; ++i) {
    const auto a = pick();
    const auto b = pick();
    if (a != b) seed_pairs.push_back({std::min(a, b), std::max(a, b), 1});
  }
  homoglyph::DbConfig config;
  config.use_uc = false;
  homoglyph::HomoglyphDb hg{simchar::SimCharDb{std::move(seed_pairs)},
                            unicode::ConfusablesDb::embedded(), config};

  std::vector<U32String> labels;
  for (int i = 0; i < 40; ++i) {
    U32String label;
    const std::size_t n = 2 + rng.below(5);
    for (std::size_t j = 0; j < n; ++j) label.push_back(pick());
    labels.push_back(label);
  }
  const std::span<const U32String> label_span{labels};
  detect::SkeletonIndex built{hg, label_span};
  const auto initial = std::make_shared<const db::SkeletonFlat>(built.to_flat());
  auto adopted = detect::SkeletonIndex::adopt_view(
      hg,
      {.hash_mask = initial->hash_mask,
       .non_empty_buckets = initial->non_empty_buckets,
       .entry_hashes = initial->entry_hashes,
       .bucket_hashes = initial->bucket_hashes,
       .bucket_offsets = initial->bucket_offsets,
       .bucket_entries = initial->bucket_entries},
      initial);

  constexpr CodePoint kScan = 0x500;
  for (int step = 0; step < 20; ++step) {
    const std::string where =
        "seed=" + std::to_string(GetParam()) + " step=" + std::to_string(step);
    std::vector<simchar::HomoglyphPair> batch;
    const std::size_t size = 1 + rng.below(5);
    for (std::size_t i = 0; i < size; ++i) {
      CodePoint a = pick();
      CodePoint b = pick();
      const auto kind = rng.below(4);
      const auto pairs = hg.to_flat().pair_keys;
      if (kind == 0 && !pairs.empty()) {  // a listed pair: duplicate or widening
        const auto k = pairs[rng.below(pairs.size())];
        a = static_cast<CodePoint>(k >> 32);
        b = static_cast<CodePoint>(k & 0xFFFFFFFF);
      } else if (kind == 1) {  // a chord: both ends already in one component
        std::vector<CodePoint> mates;
        for (const auto c : alphabet) {
          if (c != a && hg.canonical(c) == hg.canonical(a)) mates.push_back(c);
        }
        if (!mates.empty()) b = mates[rng.below(mates.size())];
      }
      if (a == b) continue;
      batch.push_back({std::min(a, b), std::max(a, b), 2});
    }
    const auto source =
        rng.below(2) == 0 ? homoglyph::Source::kUc : homoglyph::Source::kSimChar;

    std::vector<CodePoint> before(kScan);
    for (CodePoint cp = 0; cp < kScan; ++cp) before[cp] = hg.canonical(cp);
    const auto result = hg.apply_update(batch, source);
    std::vector<CodePoint> moved;
    for (CodePoint cp = 0; cp < kScan; ++cp) {
      if (hg.canonical(cp) != before[cp]) moved.push_back(cp);
    }
    EXPECT_EQ(result.canonical_changed, moved) << where;

    expect_same_arrays(hg.to_flat(),
                       homoglyph::HomoglyphDb::parse(hg.serialize()).to_flat(), where);

    built.rehash_changed(label_span, result.canonical_changed);
    adopted.rehash_changed(label_span, result.canonical_changed);
    const auto fresh = detect::SkeletonIndex{hg, label_span}.to_flat();
    EXPECT_EQ(built.to_flat(), fresh) << where;
    EXPECT_EQ(adopted.to_flat(), fresh) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateEquivalence,
                         ::testing::Values(601, 602, 603, 604, 605));

// --- Serialization closure -------------------------------------------------

class SerializationSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializationSweep, SimCharSerializeParseIsIdentityAtEveryTheta) {
  simchar::BuildOptions options;
  options.threshold = GetParam();
  const auto db = simchar::SimCharDb::build(*property_font(), options);
  EXPECT_TRUE(std::ranges::equal(simchar::SimCharDb::parse(db.serialize()).pairs(), db.pairs()));
}

INSTANTIATE_TEST_SUITE_P(Thetas, SerializationSweep, ::testing::Values(0, 2, 4, 8));

// --- Kernel-level equivalence -------------------------------------------
//
// Randomized differential property: for every dispatch level the host can
// run, the ∆ kernels agree bit-exact with the scalar reference on
// randomized panels. Complements the adversarial fixed cases in
// test_kernels.cpp with seed-parameterized fuzzing.

class KernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEquivalence, DeltaBatchAgreesWithScalarOnRandomPanels) {
  util::Rng rng{GetParam()};
  // Sizes straddle the 4-lane width and its tails.
  const std::size_t n = 1 + rng.below(70);
  std::vector<std::array<std::uint64_t, kernels::kGlyphWords>> glyphs(n);
  kernels::GlyphPanel panel(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& w : glyphs[i]) w = rng.next();
    panel.set_glyph(i, glyphs[i].data());
  }
  std::array<std::uint64_t, kernels::kGlyphWords> query;
  for (auto& w : query) w = rng.next();

  std::vector<std::int32_t> expected(n);
  {
    kernels::ScopedKernelLevel pin{kernels::Level::kScalar};
    ASSERT_TRUE(pin.forced());
    kernels::delta_batch_u1024(query.data(), panel, 0, n, expected.data());
  }
  for (const auto level : kernels::supported_levels()) {
    kernels::ScopedKernelLevel pin{level};
    ASSERT_TRUE(pin.forced());
    std::vector<std::int32_t> out(n);
    kernels::delta_batch_u1024(query.data(), panel, 0, n, out.data());
    EXPECT_EQ(out, expected) << kernels::level_name(level);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(kernels::delta_u1024(query.data(), glyphs[i].data()),
                expected[i])
          << kernels::level_name(level) << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace sham
