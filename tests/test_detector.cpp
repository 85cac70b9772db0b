#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "db/artifact.hpp"
#include "detect/candidates.hpp"
#include "detect/detector.hpp"
#include "detect/engine.hpp"
#include "detect/skeleton_index.hpp"
#include "font/paper_font.hpp"
#include "idna/idna.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace sham::detect {
namespace {

using unicode::CodePoint;
using unicode::U32String;

simchar::SimCharDb test_sim() {
  // Matches the paper's Figure 2 example: о (Cyrillic) and օ (Armenian)
  // are homoglyphs of 'o'; plus a few more for variety.
  return simchar::SimCharDb{{
      {'o', 0x043E, 0},
      {'o', 0x0585, 2},
      {'e', 0x00E9, 3},
      {'a', 0x0430, 1},
      {'i', 0x0131, 2},
  }};
}

homoglyph::HomoglyphDb test_db() {
  homoglyph::DbConfig config;
  config.use_uc = false;  // keep the pair set small and explicit
  return homoglyph::HomoglyphDb{test_sim(), unicode::ConfusablesDb::embedded(), config};
}

IdnEntry entry(const U32String& label) {
  return {idna::to_a_label(label), label};
}

/// Cache-free single-threaded engine under the given strategy — the
/// test-local stand-in for the removed detect()/detect_indexed()/
/// detect_unicode() wrappers.
Engine one_shot(const homoglyph::HomoglyphDb& db,
                Strategy strategy = Strategy::kSerial) {
  return Engine{db, {.strategy = strategy, .threads = 1, .cache = false}};
}

TEST(Detector, Figure2PositiveExample) {
  // reference "google", IDN "gооgle"/"goоgle" variants match.
  const auto db = test_db();
  const std::vector<std::string> refs{"google"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 0x0585, 'g', 'l', 'e'}),  // both о and օ
  };
  const auto matches =
      one_shot(db).detect({.references = refs, .idns = idns}).matches;
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].reference_index, 0u);
  EXPECT_EQ(matches[0].idn_index, 0u);
  ASSERT_EQ(matches[0].diffs.size(), 2u);
  EXPECT_EQ(matches[0].diffs[0].index, 1u);
  EXPECT_EQ(matches[0].diffs[0].idn_char, 0x043Eu);
  EXPECT_EQ(matches[0].diffs[0].ref_char, static_cast<CodePoint>('o'));
  EXPECT_EQ(matches[0].diffs[1].index, 2u);
}

TEST(Detector, Figure2NegativeExample) {
  // "goc aié"-style string: same length as "google" but containing a
  // character with no homoglyph relation.
  const auto db = test_db();
  const std::vector<std::string> refs{"google"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 'c', 'a', 'i', 0x00E9}),
  };
  EXPECT_TRUE(one_shot(db).detect({.references = refs, .idns = idns}).matches.empty());
}

TEST(Detector, LengthMismatchNeverMatches) {
  const auto db = test_db();
  const std::vector<std::string> refs{"google"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 0x043E, 'g', 'l', 'e', 's'}),  // 7 chars
      entry({'g', 0x043E, 0x043E, 'g', 'l'}),            // 5 chars
  };
  EXPECT_TRUE(one_shot(db).detect({.references = refs, .idns = idns}).matches.empty());
}

TEST(Detector, IdenticalStringIsNotAHomograph) {
  const auto db = test_db();
  const HomographDetector detector{db};
  std::vector<DiffChar> diffs;
  const U32String same{'g', 'o', 'o', 'g', 'l', 'e'};
  EXPECT_FALSE(detector.match_pair("google", same, &diffs));
}

TEST(Detector, AllPositionsMustMatchOrPair) {
  const auto db = test_db();
  const HomographDetector detector{db};
  std::vector<DiffChar> diffs;
  // One homoglyph + one unrelated substitution -> no match.
  const U32String label{'g', 0x043E, 'x', 'g', 'l', 'e'};
  EXPECT_FALSE(detector.match_pair("google", label, &diffs));
}

TEST(Detector, MultipleReferencesAndIdns) {
  const auto db = test_db();
  const std::vector<std::string> refs{"google", "apple", "pie"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 'o', 'g', 'l', 'e'}),
      entry({0x0430, 'p', 'p', 'l', 'e'}),
      entry({'p', 0x0131, 'e'}),
      entry({0x4E00, 0x4E8C}),  // unrelated CJK
  };
  const auto matches =
      one_shot(db).detect({.references = refs, .idns = idns}).matches;
  EXPECT_EQ(matches.size(), 3u);
}

TEST(Detector, IndexedMatchesNaive) {
  const auto db = test_db();
  util::Rng rng{77};

  std::vector<std::string> refs;
  for (int i = 0; i < 40; ++i) {
    std::string name;
    const int n = 3 + static_cast<int>(rng.below(8));
    for (int j = 0; j < n; ++j) name += static_cast<char>('a' + rng.below(26));
    refs.push_back(name);
  }
  std::vector<IdnEntry> idns;
  const CodePoint subs[] = {0x043E, 0x0585, 0x00E9, 0x0430, 0x0131};
  for (int i = 0; i < 200; ++i) {
    const auto& ref = refs[rng.below(refs.size())];
    U32String label;
    for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
    // Randomly mutate 1-2 positions with homoglyphs or junk.
    const int muts = 1 + static_cast<int>(rng.below(2));
    for (int m = 0; m < muts; ++m) {
      label[rng.below(label.size())] = subs[rng.below(std::size(subs))];
    }
    idns.push_back(entry(label));
  }

  const auto naive =
      one_shot(db).detect({.references = refs, .idns = idns});
  // The production kSkeleton path against Algorithm 1 as printed.
  const auto skeleton =
      one_shot(db, Strategy::kSkeleton).detect({.references = refs, .idns = idns});

  const auto key = [](const Match& m) {
    return std::make_pair(m.reference_index, m.idn_index);
  };
  std::vector<std::pair<std::size_t, std::size_t>> a, b;
  for (const auto& m : naive.matches) a.push_back(key(m));
  for (const auto& m : skeleton.matches) b.push_back(key(m));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_GT(naive.stats.length_bucket_hits, 0u);
}

TEST(Detector, DiffProvenanceIsReported) {
  simchar::SimCharDb sim{{{'o', 0x00F6, 3}}};
  homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), {}};
  const HomographDetector detector{db};
  std::vector<DiffChar> diffs;
  // ö: SimChar; Cyrillic о: UC.
  const U32String label{0x00F6, 0x043E};
  ASSERT_TRUE(detector.match_pair("oo", label, &diffs));
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].source, homoglyph::Source::kSimChar);
  EXPECT_EQ(diffs[1].source, homoglyph::Source::kUc);
}

TEST(Detector, SkeletonBaselineFindsUcHomographs) {
  const auto& uc = unicode::ConfusablesDb::embedded();
  const std::vector<std::string> refs{"google", "paypal"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 0x043E, 'g', 'l', 'e'}),   // UC skeleton = google
      entry({'p', 0x0430, 'y', 'p', 0x0430, 'l'}),   // UC skeleton = paypal
      entry({'g', 0x00F6, 0x00F6, 'g', 'l', 'e'}),   // ö is NOT in UC
  };
  const auto matches = detect_by_skeleton(uc, refs, idns);
  EXPECT_EQ(matches.size(), 2u);
}

TEST(Detector, EmptyInputs) {
  const auto db = test_db();
  EXPECT_TRUE(one_shot(db).detect({}).matches.empty());
  const std::vector<std::string> refs{"google"};
  EXPECT_TRUE(one_shot(db).detect({.references = refs}).matches.empty());
}

// --- Engine (unified detect() + parallel sharding) --------------------

/// Workload over the paper-scale synthetic font: real SimChar pairs, refs
/// drawn from Latin lowercase, IDNs mutated with genuine homoglyphs (so
/// matches occur) and junk (so rejections occur).
struct EngineWorkload {
  homoglyph::HomoglyphDb db;
  std::vector<std::string> refs;
  std::vector<IdnEntry> idns;
};

const EngineWorkload& paper_font_workload() {
  static const auto* workload = [] {
    auto* w = new EngineWorkload;
    font::PaperFontConfig config;
    config.scale = 0.1;
    const auto paper = font::make_paper_font(config);
    const auto sim = simchar::SimCharDb::build(*paper.font);
    w->db = homoglyph::HomoglyphDb{sim, unicode::ConfusablesDb::embedded(), {}};

    util::Rng rng{2019};
    for (int i = 0; i < 120; ++i) {
      std::string name;
      const int n = 3 + static_cast<int>(rng.below(9));
      for (int j = 0; j < n; ++j) name += static_cast<char>('a' + rng.below(26));
      w->refs.push_back(name);
    }
    for (int i = 0; i < 1500; ++i) {
      const auto& ref = w->refs[rng.below(w->refs.size())];
      U32String label;
      for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
      const int muts = 1 + static_cast<int>(rng.below(2));
      for (int m = 0; m < muts; ++m) {
        const auto pos = rng.below(label.size());
        const auto subs = w->db.homoglyphs_of(label[pos]);
        // Half genuine homoglyph substitutions, half junk characters.
        label[pos] = (!subs.empty() && rng.below(2) == 0)
                         ? subs[rng.below(subs.size())]
                         : static_cast<CodePoint>(0x3042 + rng.below(64));
      }
      w->idns.push_back({"", label});
    }
    return w;
  }();
  return *workload;
}

TEST(Engine, ParallelIsByteIdenticalToSerialIndexedOnPaperFontWorkload) {
  // The sharded kSkeleton scan at 1/2/8 threads, both join directions,
  // against the kSerial oracle.
  const auto& w = paper_font_workload();
  const auto serial =
      one_shot(w.db).detect({.references = w.refs, .idns = w.idns}).matches;
  ASSERT_FALSE(serial.empty());  // workload must exercise the match path

  std::optional<DetectionStats> single_thread;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    // Memo off, so the repeat runs: the first call indexes the references
    // (refs x 4 <= IDNs), the repeat finds the IDN set stable and indexes it.
    const Engine engine{w.db, {.threads = threads, .result_cache_capacity = 0}};
    for (const bool inverted : {true, false}) {
      const auto r = engine.detect({.references = w.refs, .idns = w.idns});
      ASSERT_EQ(r.stats.inverted_join, inverted) << "threads=" << threads;
      // Exact equality: same matches, same order, same diffs (incl. provenance).
      EXPECT_EQ(r.matches, serial) << "threads=" << threads << " inverted=" << inverted;
      // Counters are summed per shard, so neither the shard count nor the
      // join direction moves them.
      if (!single_thread) single_thread = r.stats;
      EXPECT_EQ(r.stats.length_bucket_hits, single_thread->length_bucket_hits);
      EXPECT_EQ(r.stats.char_comparisons, single_thread->char_comparisons);
      if (threads > 1) {
        EXPECT_EQ(r.stats.threads_used, threads);
        EXPECT_GT(r.stats.shards_used, 1u);
      }
      // Per-shard candidate counts are an exact decomposition of the total.
      std::uint64_t sum = 0;
      for (const auto c : r.stats.shard_candidates) sum += c;
      EXPECT_EQ(sum, r.stats.length_bucket_hits);
      EXPECT_EQ(r.stats.shard_candidates.size(), r.stats.shards_used);
    }
  }
}

TEST(Engine, AllStrategiesAgreeOnUnicodeReferences) {
  const auto& w = paper_font_workload();
  std::vector<U32String> urefs;
  for (const auto& ref : w.refs) {
    U32String u;
    for (const char c : ref) u.push_back(static_cast<unsigned char>(c));
    urefs.push_back(u);
  }
  const auto serial =
      one_shot(w.db).detect({.unicode_references = urefs, .idns = w.idns}).matches;

  const Engine engine{w.db, {.threads = 4}};
  for (const auto strategy : {Strategy::kSerial, Strategy::kSkeleton}) {
    const auto r = engine.detect(
        {.unicode_references = urefs, .idns = w.idns, .strategy = strategy});
    EXPECT_EQ(r.matches, serial) << strategy_name(strategy);
  }
}

TEST(Engine, EmptyInputs) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 8}};
  EXPECT_TRUE(engine.detect({}).matches.empty());
  const std::vector<std::string> refs{"google"};
  const auto r = engine.detect({.references = refs});
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.stats.length_bucket_hits, 0u);
}

TEST(Engine, SingleReferenceUsesSingleShard) {
  // One reference cannot be sharded: the engine must degrade to a single
  // shard and still match the serial result.
  const auto db = test_db();
  const std::vector<std::string> refs{"google"};
  const std::vector<IdnEntry> idns{entry({'g', 0x043E, 0x0585, 'g', 'l', 'e'})};
  const auto serial = one_shot(db).detect({.references = refs, .idns = idns}).matches;

  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 8}};
  const auto r = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(r.matches, serial);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.stats.shards_used, 1u);
  EXPECT_EQ(r.stats.shard_candidates.size(), 1u);
}

TEST(Engine, RejectsAmbiguousRequest) {
  const auto db = test_db();
  const Engine engine{db};
  const std::vector<std::string> refs{"google"};
  const std::vector<U32String> urefs{{'p', 'i', 'e'}};
  EXPECT_THROW(
      static_cast<void>(engine.detect({.references = refs, .unicode_references = urefs})),
      std::invalid_argument);
}

TEST(Engine, RequestOverridesEngineOptions) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSerial, .threads = 2}};
  const std::vector<std::string> refs{"google", "apple"};
  const std::vector<IdnEntry> idns{entry({'g', 0x043E, 'o', 'g', 'l', 'e'})};
  const auto r = engine.detect(
      {.references = refs, .idns = idns, .strategy = Strategy::kSkeleton});
  EXPECT_EQ(r.stats.threads_used, 2u);
  EXPECT_EQ(r.matches.size(), 1u);
}

TEST(Engine, StrategyNamesRoundTrip) {
  for (const auto strategy : {Strategy::kSerial, Strategy::kSkeleton}) {
    EXPECT_EQ(parse_strategy(strategy_name(strategy)), strategy);
  }
  EXPECT_FALSE(parse_strategy("warp-drive").has_value());
  // The deleted length-index strategies are no longer accepted.
  EXPECT_FALSE(parse_strategy("indexed").has_value());
  EXPECT_FALSE(parse_strategy("parallel").has_value());
}

// --- Skeleton-hash candidate index (Strategy::kSkeleton) --------------

TEST(Engine, SkeletonIsByteIdenticalToSerialOnPaperFontWorkload) {
  const auto& w = paper_font_workload();
  const auto serial = one_shot(w.db).detect({.references = w.refs, .idns = w.idns});
  ASSERT_FALSE(serial.matches.empty());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const Engine engine{w.db, {.threads = threads}};
    const auto r = engine.detect({.references = w.refs, .idns = w.idns});
    // Exact equality: same matches, same order, same diffs and provenance.
    EXPECT_EQ(r.matches, serial.matches) << "threads=" << threads;
    // Candidate accounting: the skeleton probe must examine far fewer
    // pairs than the serial same-length scan while never missing a match.
    EXPECT_EQ(r.stats.skeleton_candidates, r.stats.length_bucket_hits);
    EXPECT_LT(r.stats.length_bucket_hits, serial.stats.length_bucket_hits);
    EXPECT_LT(r.stats.char_comparisons, serial.stats.char_comparisons);
    EXPECT_GE(r.stats.skeleton_candidates, serial.matches.size());
    EXPECT_EQ(r.stats.skeleton_rejected,
              r.stats.skeleton_candidates - serial.matches.size());
    EXPECT_GT(r.stats.skeleton_buckets, 0u);
    // The histogram covers every bucket exactly once.
    std::uint64_t histogram_total = 0;
    for (const auto n : r.stats.skeleton_bucket_histogram) histogram_total += n;
    EXPECT_EQ(histogram_total, r.stats.skeleton_buckets);
    // Per-shard candidates still decompose the total under sharding.
    std::uint64_t sum = 0;
    for (const auto c : r.stats.shard_candidates) sum += c;
    EXPECT_EQ(sum, r.stats.length_bucket_hits);
  }
}

TEST(Engine, SkeletonVerifiesAwayNonTransitiveTriples) {
  // a~b and b~c listed, {a, c} not: the closure puts "abc"-alphabet
  // strings in one skeleton bucket, so an IDN using c where the reference
  // has a MUST surface as a rejected candidate, never as a match.
  simchar::SimCharDb sim{{{'a', 'b', 1}, {'b', 'c', 1}}};
  homoglyph::DbConfig config;
  config.use_uc = false;
  const homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};

  const std::vector<std::string> refs{"aaa", "aba"};
  const std::vector<IdnEntry> idns{
      entry({'a', 'b', 'a'}),  // matches "aaa" (a~b), identical to "aba" -> no match
      entry({'a', 'c', 'a'}),  // closure-bucket hit for both refs; only "aba" matches (b~c? no — a~c unlisted, c~b listed)
      entry({'c', 'c', 'c'}),  // skeleton equals "aaa" but no position pairs with 'a'
  };
  const Engine engine{db};
  const auto serial = engine.detect(
      {.references = refs, .idns = idns, .strategy = Strategy::kSerial});
  const auto skel = engine.detect(
      {.references = refs, .idns = idns, .strategy = Strategy::kSkeleton});

  EXPECT_EQ(skel.matches, serial.matches);
  // The over-approximate bucket really did hand the verifier false
  // positives (e.g. "ccc" vs "aaa"), and verification rejected them.
  EXPECT_GT(skel.stats.skeleton_rejected, 0u);
  EXPECT_GT(skel.stats.skeleton_rejection_rate(), 0.0);
  // Sanity on content: "ccc" never matches anything.
  for (const auto& m : skel.matches) EXPECT_NE(m.idn_index, 2u);
}

TEST(Engine, SkeletonAgreesOnUnicodeReferences) {
  const auto& w = paper_font_workload();
  std::vector<U32String> urefs;
  for (const auto& ref : w.refs) {
    U32String u;
    for (const char c : ref) u.push_back(static_cast<unsigned char>(c));
    urefs.push_back(u);
  }
  const Engine engine{w.db, {.threads = 4}};
  const auto serial = engine.detect(
      {.unicode_references = urefs, .idns = w.idns, .strategy = Strategy::kSerial});
  const auto skel = engine.detect({.unicode_references = urefs, .idns = w.idns});
  EXPECT_EQ(skel.matches, serial.matches);
}

TEST(SkeletonIndex, CollisionBucketsAreVerifiedExactly) {
  // Truncate the hash to 2 bits: at most 4 buckets for the whole IDN set,
  // so buckets mix unrelated skeletons (and lengths). Exact verification
  // of every bucket entry must still reproduce the serial matches.
  const auto& w = paper_font_workload();
  const SkeletonIndex index{w.db, w.idns, {.hash_bits = 2}};
  EXPECT_LE(index.bucket_count(), 4u);

  const HomographDetector detector{w.db};
  std::vector<Match> matches;
  std::vector<DiffChar> diffs;
  for (std::size_t r = 0; r < w.refs.size(); ++r) {
    const auto bucket = index.probe(index.hash_of(w.refs[r]));
    if (bucket.empty()) continue;
    for (const auto x : bucket) {
      if (detector.match_pair(w.refs[r], w.idns[x].unicode, &diffs)) {
        matches.push_back({r, x, diffs});
      }
    }
  }
  const Engine engine{w.db};
  const auto serial = engine.detect(
      {.references = w.refs, .idns = w.idns, .strategy = Strategy::kSerial});
  EXPECT_EQ(matches, serial.matches);
}

TEST(SkeletonIndex, OccupancyHistogramAggregatesTail) {
  const auto db = test_db();
  // Six IDNs, all sharing one skeleton ('o'-cluster homoglyphs of "oo").
  std::vector<IdnEntry> idns;
  for (int i = 0; i < 6; ++i) {
    idns.push_back(entry({static_cast<CodePoint>(i % 2 == 0 ? 0x043E : 0x0585),
                          static_cast<CodePoint>('o')}));
  }
  const SkeletonIndex index{db, idns};
  EXPECT_EQ(index.bucket_count(), 1u);
  const auto histogram = index.occupancy_histogram(4);
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[3], 1u);  // one bucket of size 6 >= max_slots
  EXPECT_EQ(histogram[0] + histogram[1] + histogram[2], 0u);
}

/// Test-local skeleton hash: FNV-1a 64 over [length, canonical(c)...],
/// each value fed as its four bytes, low byte first.
std::uint64_t naive_skeleton_hash(const homoglyph::HomoglyphDb& db, const U32String& label) {
  std::vector<std::uint32_t> stream{static_cast<std::uint32_t>(label.size())};
  for (const auto c : label) stream.push_back(db.canonical(c));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto value : stream) {
    for (int shift = 0; shift < 32; shift += 8) {
      h = (h ^ ((value >> shift) & 0xFF)) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(SkeletonIndex, HashIsLengthPrefixedFnv1aOverTheCanonicalStream) {
  // The artifact's SKEL section stores these hashes, so they are pinned
  // bit for bit, on a database whose canonical() moves ASCII and
  // non-ASCII characters alike.
  const simchar::SimCharDb sim{{
      {'o', 0x043E, 0}, {'0', 'o', 1}, {'1', 'l', 1}, {'l', 0x0131, 2}, {'a', 0x0430, 1},
  }};
  homoglyph::DbConfig config;
  config.use_uc = false;
  const homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};
  ASSERT_EQ(db.canonical('o'), CodePoint{'0'});
  ASSERT_EQ(db.canonical(0x0131), CodePoint{'1'});

  // Lengths on both sides of 64 code points, plus empty, single and long.
  const std::string ascii_alphabet = "o0l1ab-9";
  const U32String unicode_alphabet{0x043E, 'o', 0x0131, 0x0430, 0x4E2D, 'z', 0x0585};
  std::vector<std::string> ascii;
  std::vector<U32String> unicode;
  std::vector<IdnEntry> idns;
  for (const std::size_t length : {0u, 1u, 62u, 63u, 64u, 65u, 200u}) {
    std::string a;
    U32String u;
    for (std::size_t i = 0; i < length; ++i) {
      a += ascii_alphabet[(i * 5 + length) % ascii_alphabet.size()];
      u.push_back(unicode_alphabet[(i * 3 + length) % unicode_alphabet.size()]);
    }
    ascii.push_back(a);
    unicode.push_back(u);
    idns.push_back({"", u});
  }

  for (const unsigned bits : {64u, 5u}) {
    const std::uint64_t mask = bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
    const SkeletonIndex by_ascii{db, std::span<const std::string>{ascii}, {.hash_bits = bits}};
    const SkeletonIndex by_unicode{db, std::span<const U32String>{unicode}, {.hash_bits = bits}};
    const SkeletonIndex by_idn{db, idns, {.hash_bits = bits}};
    for (std::size_t i = 0; i < ascii.size(); ++i) {
      const auto ascii_hash =
          naive_skeleton_hash(db, U32String(ascii[i].begin(), ascii[i].end())) & mask;
      EXPECT_EQ(by_ascii.hash_of(ascii[i]), ascii_hash) << "bits " << bits << " i " << i;
      EXPECT_EQ(by_ascii.entry_hash(i), ascii_hash) << "bits " << bits << " i " << i;
      const auto unicode_hash = naive_skeleton_hash(db, unicode[i]) & mask;
      EXPECT_EQ(by_unicode.hash_of(unicode[i]), unicode_hash) << "bits " << bits << " i " << i;
      EXPECT_EQ(by_unicode.entry_hash(i), unicode_hash) << "bits " << bits << " i " << i;
      EXPECT_EQ(by_idn.entry_hash(i), unicode_hash) << "bits " << bits << " i " << i;
    }
  }
}

TEST(Engine, SkeletonEmptyInputs) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSkeleton}};
  EXPECT_TRUE(engine.detect({}).matches.empty());
  const std::vector<std::string> refs{"google"};
  const auto r = engine.detect({.references = refs});
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.stats.skeleton_candidates, 0u);
  EXPECT_EQ(r.stats.skeleton_rejection_rate(), 0.0);
}

TEST(Engine, StatsSecondsIsWallClockNotShardSum) {
  // seconds covers the whole run and must be at least the stage sum of
  // the wall-clock stages (index build + match + merge), never the sum of
  // per-shard times (which would exceed it under real parallelism).
  const auto& w = paper_font_workload();
  const Engine engine{w.db, {.threads = 4}};
  const auto r = engine.detect({.references = w.refs, .idns = w.idns});
  EXPECT_GE(r.stats.seconds + 1e-9, r.stats.skeleton_build_seconds +
                                        r.stats.match_seconds + r.stats.merge_seconds);
  EXPECT_GT(r.stats.match_seconds, 0.0);
}

// --- Candidate generation ---------------------------------------------

TEST(Candidates, SingleSubstitutionCount) {
  const auto db = test_db();
  // "oe": 'o' has 2 homoglyphs, 'e' has 1 -> 3 single-sub candidates.
  const auto out = generate_candidates(db, "oe");
  EXPECT_EQ(out.size(), 3u);
  for (const auto& c : out) {
    EXPECT_EQ(c.substitutions, 1u);
    EXPECT_TRUE(idna::is_a_label(c.ace)) << c.ace;
  }
}

TEST(Candidates, TwoSubstitutions) {
  const auto db = test_db();
  CandidateOptions options;
  options.max_substitutions = 2;
  const auto out = generate_candidates(db, "oe", options);
  // 3 singles + 2x1 doubles = 5.
  EXPECT_EQ(out.size(), 5u);
  // Ordered by substitution count.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].substitutions, out[i].substitutions);
  }
}

TEST(Candidates, CapRespected) {
  const auto db = test_db();
  CandidateOptions options;
  options.max_substitutions = 3;
  options.max_candidates = 4;
  const auto out = generate_candidates(db, "ooee", options);
  EXPECT_LE(out.size(), 4u);
}

TEST(Candidates, CandidatesDecodeBack) {
  const auto db = test_db();
  const auto out = generate_candidates(db, "google");
  ASSERT_FALSE(out.empty());
  for (const auto& c : out) {
    const auto u = idna::to_u_label(c.ace);
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(*u, c.unicode);
  }
}

TEST(Candidates, RejectsBadInput) {
  const auto db = test_db();
  EXPECT_THROW(generate_candidates(db, ""), std::invalid_argument);
  EXPECT_THROW(generate_candidates(db, "caf\xC3\xA9"), std::invalid_argument);
}

TEST(Candidates, NoHomoglyphsMeansNoCandidates) {
  const auto db = test_db();
  EXPECT_TRUE(generate_candidates(db, "zzz").empty());
}

// --- Engine-resident index & result caching --------------------------------

std::vector<Match> fresh_serial(const homoglyph::HomoglyphDb& db,
                                std::span<const std::string> refs,
                                std::span<const IdnEntry> idns) {
  const Engine pure{db, {.strategy = Strategy::kSerial, .threads = 1, .cache = false}};
  return pure.detect({.references = refs, .idns = idns}).matches;
}

TEST(EngineCache, WarmHitSkipsBuild) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::string> refs{"google", "mail"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 'o', 'g', 'l', 'e'}),
      entry({'m', 0x0430, 'i', 'l'}),
  };
  const auto cold = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(cold.stats.index_cache_rebuilds, 1u);
  EXPECT_EQ(cold.stats.index_cache_hits, 0u);
  EXPECT_EQ(cold.stats.result_cache_hits, 0u);
  ASSERT_EQ(cold.matches.size(), 2u);

  const auto warm = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(warm.stats.result_cache_hits, 1u);
  EXPECT_EQ(warm.stats.index_cache_rebuilds, 0u);
  EXPECT_EQ(warm.stats.skeleton_build_seconds, 0.0);
  EXPECT_EQ(warm.stats.match_seconds, 0.0);
  EXPECT_EQ(warm.matches, cold.matches);
  EXPECT_EQ(warm.matches, fresh_serial(db, refs, idns));
}

TEST(EngineCache, WarmIndexServesChangedReferences) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::string> refs_a{"google"};
  const std::vector<std::string> refs_b{"mail"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 'o', 'g', 'l', 'e'}),
      entry({'m', 0x0430, 'i', 'l'}),
  };
  (void)engine.detect({.references = refs_a, .idns = idns});
  // New reference list, same IDN set: the response memo misses but the
  // skeleton index is reused — no build, real scan.
  const auto r = engine.detect({.references = refs_b, .idns = idns});
  EXPECT_EQ(r.stats.result_cache_hits, 0u);
  EXPECT_EQ(r.stats.index_cache_hits, 1u);
  EXPECT_EQ(r.stats.index_cache_rebuilds, 0u);
  EXPECT_EQ(r.stats.skeleton_build_seconds, 0.0);
  EXPECT_EQ(r.matches, fresh_serial(db, refs_b, idns));
}

TEST(EngineCache, IdnSwapInvalidates) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::string> refs{"google"};
  std::vector<IdnEntry> idns{entry({'g', 0x043E, 'o', 'g', 'l', 'e'})};
  const auto first = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(first.stats.index_cache_rebuilds, 1u);
  ASSERT_EQ(first.matches.size(), 1u);

  // Mutate the IDN set *in place* — same span address, different content.
  // Content fingerprints must catch this (pointer identity would not).
  idns[0] = entry({'g', 'o', 0x0585, 'g', 'l', 'e'});
  const auto second = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(second.stats.result_cache_hits, 0u);
  EXPECT_EQ(second.stats.index_cache_hits, 0u);
  EXPECT_EQ(second.stats.index_cache_rebuilds, 1u);
  EXPECT_EQ(second.matches, fresh_serial(db, refs, idns));
  ASSERT_EQ(second.matches.size(), 1u);
  EXPECT_EQ(second.matches[0].diffs[0].index, 2u);
}

TEST(EngineCache, IncrementalUpdateRehashesOnlyAffectedEntries) {
  simchar::SimCharDb sim{{{'o', 0x043E, 0}}};
  homoglyph::DbConfig config;
  config.use_uc = false;
  homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::string> refs{"ok"};
  const std::vector<IdnEntry> idns{
      entry({0x0585, 'k'}),  // Armenian օ: unrelated until the update below
      entry({0x043E, 'k'}),  // Cyrillic о: matches "ok" from the start
      entry({'z', 'z'}),     // never affected
  };
  const auto cold = engine.detect({.references = refs, .idns = idns});
  ASSERT_EQ(cold.matches.size(), 1u);
  EXPECT_EQ(cold.matches[0].idn_index, 1u);

  // New pair {о, օ} merges օ into o's component: only the one IDN whose
  // label contains օ may be rehashed.
  const simchar::HomoglyphPair added[] = {{0x043E, 0x0585, 2}};
  const auto update = db.apply_update(added);
  EXPECT_EQ(update.pairs_added, 1u);
  EXPECT_EQ(update.canonical_changed, std::vector<CodePoint>{0x0585});

  const auto patched = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(patched.stats.index_cache_updates, 1u);
  EXPECT_EQ(patched.stats.index_cache_rebuilds, 0u);
  EXPECT_EQ(patched.stats.index_entries_rehashed, 1u);
  EXPECT_EQ(patched.stats.db_generation, 1u);
  EXPECT_EQ(patched.stats.index_generation, 1u);
  // օk now lands in ok's bucket but {օ, o} is not itself a listed pair —
  // the closure over-approximates and exact verification must reject it.
  EXPECT_EQ(patched.stats.skeleton_rejected, cold.stats.skeleton_rejected + 1);
  EXPECT_EQ(patched.matches, fresh_serial(db, refs, idns));
  ASSERT_EQ(patched.matches.size(), 1u);
}

TEST(EngineCache, WithinComponentUpdateRehashesNothing) {
  simchar::SimCharDb sim{{{'a', 'b', 1}, {'b', 'c', 1}}};
  homoglyph::DbConfig config;
  config.use_uc = false;
  homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), config};
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::string> refs{"aaa"};
  const std::vector<IdnEntry> idns{entry({'a', 'c', 'a'})};

  // a~b and b~c put a and c in one component, so "aca" is a candidate for
  // "aaa" — but {a, c} is not listed, so verification rejects it.
  const auto before = engine.detect({.references = refs, .idns = idns});
  EXPECT_TRUE(before.matches.empty());
  EXPECT_EQ(before.stats.skeleton_candidates, 1u);
  EXPECT_EQ(before.stats.skeleton_rejected, 1u);

  // Adding {a, c} lands inside the existing component: no canonical
  // representative moves, so the patched index rehashes zero entries —
  // yet the match list changes, which the generation bump must surface.
  const simchar::HomoglyphPair added[] = {{'a', 'c', 1}};
  const auto update = db.apply_update(added);
  EXPECT_EQ(update.pairs_added, 1u);
  EXPECT_TRUE(update.canonical_changed.empty());

  const auto after = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(after.stats.result_cache_hits, 0u);
  EXPECT_EQ(after.stats.index_cache_updates, 1u);
  EXPECT_EQ(after.stats.index_entries_rehashed, 0u);
  ASSERT_EQ(after.matches.size(), 1u);
  EXPECT_EQ(after.matches, fresh_serial(db, refs, idns));
}

TEST(EngineCache, SerialIsNeverCached) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSerial, .threads = 1}};
  const std::vector<std::string> refs{"google"};
  const std::vector<IdnEntry> idns{entry({'g', 0x043E, 'o', 'g', 'l', 'e'})};
  const auto first = engine.detect({.references = refs, .idns = idns});
  const auto second = engine.detect({.references = refs, .idns = idns});
  for (const auto* r : {&first, &second}) {
    EXPECT_EQ(r->stats.result_cache_hits, 0u);
    EXPECT_EQ(r->stats.index_cache_hits, 0u);
    EXPECT_EQ(r->stats.index_cache_rebuilds, 0u);
    EXPECT_EQ(r->stats.index_cache_updates, 0u);
    EXPECT_EQ(r->matches, first.matches);
  }
}

TEST(EngineCache, InvertedJoinMatchesForward) {
  const auto db = test_db();
  std::vector<std::string> refs{"google", "mail", "ok"};
  std::vector<IdnEntry> idns;
  for (const CodePoint o : {CodePoint{0x043E}, CodePoint{0x0585}, CodePoint{'o'}}) {
    idns.push_back(entry({'g', o, 'o', 'g', 'l', 'e'}));
    idns.push_back(entry({'m', 0x0430, 'i', 'l'}));
    idns.push_back(entry({o, 'k'}));
    idns.push_back(entry({'z', 'z', 'z'}));
  }
  // refs x 4 <= IDNs: a cold engine indexes the references.
  const Engine cold{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const auto inverted = cold.detect({.references = refs, .idns = idns});
  // An engine that has seen the same IDN set with other references takes
  // it as the stable snapshot and indexes the IDNs instead.
  const Engine promoted{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::string> other{"zzz"};
  (void)promoted.detect({.references = other, .idns = idns});
  const auto forward = promoted.detect({.references = refs, .idns = idns});
  EXPECT_FALSE(forward.stats.inverted_join);
  EXPECT_TRUE(inverted.stats.inverted_join);
  EXPECT_EQ(inverted.matches, forward.matches);
  EXPECT_EQ(inverted.matches, fresh_serial(db, refs, idns));
  // The hash join is symmetric: identical candidate pair set and counters,
  // whichever side is bucketed.
  EXPECT_EQ(inverted.stats.skeleton_candidates, forward.stats.skeleton_candidates);
  EXPECT_EQ(inverted.stats.skeleton_rejected, forward.stats.skeleton_rejected);
  EXPECT_EQ(inverted.stats.char_comparisons, forward.stats.char_comparisons);
  EXPECT_FALSE(forward.matches.empty());
}

TEST(EngineCache, AutoJoinInvertsThenPromotesStableIdnSet) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::string> refs{"ok"};
  std::vector<IdnEntry> idns;
  for (int i = 0; i < 8; ++i) idns.push_back(entry({0x043E, 'k'}));
  // 1 ref vs 8 IDNs: the size rule picks the inverted join on first sight.
  const auto first = engine.detect({.references = refs, .idns = idns});
  EXPECT_TRUE(first.stats.inverted_join);
  EXPECT_EQ(first.stats.index_cache_rebuilds, 1u);
  // The same query again is served from the response memo.
  const auto second = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(second.stats.result_cache_hits, 1u);
  EXPECT_EQ(second.stats.index_cache_rebuilds, 0u);
  // Other references against the same IDN set: promoted to the forward
  // join so the reusable IDN-side index gets built and cached.
  const std::vector<std::string> other{"ko"};
  const auto third = engine.detect({.references = other, .idns = idns});
  EXPECT_FALSE(third.stats.inverted_join);
  EXPECT_EQ(third.stats.result_cache_hits, 0u);
  EXPECT_EQ(third.stats.index_cache_rebuilds, 1u);
  EXPECT_EQ(second.matches, first.matches);
  EXPECT_EQ(first.matches, fresh_serial(db, refs, idns));
  EXPECT_EQ(third.matches, fresh_serial(db, other, idns));
}

TEST(EngineCache, RepeatedQueryIsAMemoHitWithNoSkeletonBuild) {
  // The memo keys on what the matches depend on, not on the join that
  // answered: the second identical call is a hit whichever side the first
  // call indexed, never a build on the other side. The seeded engine's
  // first call probes the artifact's reference index; the plain engine's
  // (1 ref vs 4 IDNs) builds one.
  const auto sim = test_sim();
  const auto db = test_db();
  const std::vector<std::string> refs{"google"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 'o', 'g', 'l', 'e'}),
      entry({'g', 'o', 0x0585, 'g', 'l', 'e'}),
      entry({'m', 0x0430, 'i', 'l'}),
      entry({'z', 'z', 'z'}),
  };
  const auto flat = SkeletonIndex{db, std::span<const std::string>{refs}}.to_flat();
  db::WriteRequest request;
  request.simchar = &sim;
  request.homoglyph = &db;
  request.references = refs;
  request.reference_fingerprint = label_set_fingerprint(std::span<const std::string>{refs});
  request.skeleton = &flat;
  const auto path = test::temp_path("sham_repeat_query.artifact");
  db::write_db_file(path, request);

  const Engine plain{db, {.threads = 1}};
  const auto seeded = Engine::from_db_file(path, {.threads = 1});
  for (const Engine* engine : {&plain, &seeded}) {
    const bool is_seeded = engine == &seeded;
    const auto first = engine->detect({.references = refs, .idns = idns});
    EXPECT_TRUE(first.stats.inverted_join) << "seeded=" << is_seeded;
    EXPECT_EQ(first.stats.index_cache_hits, is_seeded ? 1u : 0u);
    EXPECT_EQ(first.stats.index_cache_rebuilds, is_seeded ? 0u : 1u);
    const auto second = engine->detect({.references = refs, .idns = idns});
    EXPECT_EQ(second.stats.result_cache_hits, 1u) << "seeded=" << is_seeded;
    EXPECT_EQ(second.stats.index_cache_rebuilds, 0u) << "seeded=" << is_seeded;
    EXPECT_EQ(second.stats.skeleton_build_seconds, 0.0) << "seeded=" << is_seeded;
    EXPECT_EQ(second.matches, first.matches);
    EXPECT_EQ(first.matches, fresh_serial(db, refs, idns));
    EXPECT_EQ(first.matches.size(), 2u);
  }
  std::remove(path.c_str());
}

TEST(EngineCache, RejectsNonAsciiReferences) {
  const auto db = test_db();
  const std::vector<std::string> refs{"caf\xC3\xA9"};  // UTF-8 é, two bytes
  const std::vector<IdnEntry> idns{entry({'c', 'a', 'f', 0x00E9})};
  for (const auto strategy : {Strategy::kSerial, Strategy::kSkeleton}) {
    const Engine engine{db, {.strategy = strategy, .threads = 1}};
    EXPECT_THROW((void)engine.detect({.references = refs, .idns = idns}),
                 std::invalid_argument)
        << strategy_name(strategy);
  }
}

// A built index holds no empty buckets, but the SKEL format allows one and
// adopt_view accepts it. Probes miss it, and neither bucket_count() nor
// the histogram counts it.
TEST(SkeletonIndex, OccupancyHistogramGuardsEmptyBuckets) {
  const homoglyph::HomoglyphDb db;  // no pairs
  const simchar::SimCharDb sim{std::vector<simchar::HomoglyphPair>{}};
  const std::vector<std::string> refs{"b", "c"};
  auto flat = SkeletonIndex{db, std::span<const std::string>{refs}}.to_flat();
  ASSERT_EQ(flat.bucket_hashes.size(), 2u);
  const auto empty_hash = flat.bucket_hashes[0] + 1;
  ASSERT_LT(empty_hash, flat.bucket_hashes[1]);
  flat.bucket_hashes.insert(flat.bucket_hashes.begin() + 1, empty_hash);
  flat.bucket_offsets.insert(flat.bucket_offsets.begin() + 1, flat.bucket_offsets[1]);

  db::WriteRequest request;
  request.simchar = &sim;
  request.homoglyph = &db;
  request.references = refs;
  request.reference_fingerprint = label_set_fingerprint(std::span<const std::string>{refs});
  request.skeleton = &flat;
  const auto path = test::temp_path("sham_empty_bucket.artifact");
  db::write_db_file(path, request);
  const auto artifact = db::DbArtifact::load(path);
  const auto index = SkeletonIndex::adopt_view(db, artifact.skeleton(), artifact.backing());
  EXPECT_EQ(index.to_flat(), flat);
  EXPECT_TRUE(index.probe(empty_hash).empty());
  EXPECT_EQ(index.probe(index.hash_of("b")).size(), 1u);
  EXPECT_EQ(index.bucket_count(), 2u);

  // Pre-fix, `size() - 1` underflowed for an empty bucket and counted it
  // in the histogram tail: the histogram summed to bucket_count() + 1.
  const auto histogram = index.occupancy_histogram();
  std::uint64_t total = 0;
  for (const auto n : histogram) total += n;
  EXPECT_EQ(total, index.bucket_count());
  EXPECT_EQ(histogram[0], 2u);
  std::remove(path.c_str());
}

TEST(EngineCache, ResultLruServesRotatingReferenceLists) {
  const auto db = test_db();
  const Engine engine{db, {.strategy = Strategy::kSkeleton, .threads = 1}};
  const std::vector<std::vector<std::string>> ref_lists{
      {"google"}, {"mail"}, {"ok"}};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 'o', 'g', 'l', 'e'}),
      entry({'m', 0x0430, 'i', 'l'}),
      entry({0x0585, 'k'}),
  };
  // First round populates one LRU entry per reference list.
  std::vector<DetectResponse> cold;
  for (const auto& refs : ref_lists) {
    cold.push_back(engine.detect({.references = refs, .idns = idns}));
    EXPECT_EQ(cold.back().stats.result_cache_hits, 0u);
  }
  EXPECT_EQ(cold.back().stats.result_cache_entries, 3u);
  // Second round: every rotated list hits (the old single-slot memo kept
  // only the last query and would miss all but one).
  for (std::size_t i = 0; i < ref_lists.size(); ++i) {
    const auto warm = engine.detect({.references = ref_lists[i], .idns = idns});
    EXPECT_EQ(warm.stats.result_cache_hits, 1u) << "list " << i;
    EXPECT_EQ(warm.stats.result_cache_entries, 3u);
    EXPECT_EQ(warm.matches, cold[i].matches);
  }
}

TEST(EngineCache, ResultLruEvictsLeastRecentlyUsed) {
  const auto db = test_db();
  const Engine engine{
      db, {.strategy = Strategy::kSkeleton, .threads = 1, .result_cache_capacity = 2}};
  const std::vector<std::string> refs_a{"google"};
  const std::vector<std::string> refs_b{"mail"};
  const std::vector<std::string> refs_c{"ok"};
  const std::vector<IdnEntry> idns{
      entry({'g', 0x043E, 'o', 'g', 'l', 'e'}),
      entry({'m', 0x0430, 'i', 'l'}),
      entry({0x043E, 'k'}),
  };
  const auto q = [&](const std::vector<std::string>& refs) {
    return engine.detect({.references = refs, .idns = idns});
  };
  EXPECT_EQ(q(refs_a).stats.result_cache_entries, 1u);
  EXPECT_EQ(q(refs_b).stats.result_cache_entries, 2u);
  // Capacity 2: storing C evicts A (least recently used), never grows.
  EXPECT_EQ(q(refs_c).stats.result_cache_entries, 2u);
  EXPECT_EQ(q(refs_b).stats.result_cache_hits, 1u);  // B survived
  const auto a_again = q(refs_a);                    // A was evicted
  EXPECT_EQ(a_again.stats.result_cache_hits, 0u);
  EXPECT_EQ(a_again.stats.result_cache_entries, 2u);
  // Storing A evicted C (B was refreshed by the hit above): both residents
  // hit, and re-querying C misses.
  EXPECT_EQ(q(refs_b).stats.result_cache_hits, 1u);
  EXPECT_EQ(q(refs_a).stats.result_cache_hits, 1u);
  EXPECT_EQ(q(refs_c).stats.result_cache_hits, 0u);
}

TEST(EngineCache, ResultCacheCapacityZeroDisablesMemo) {
  const auto db = test_db();
  const Engine engine{
      db, {.strategy = Strategy::kSkeleton, .threads = 1, .result_cache_capacity = 0}};
  const std::vector<std::string> refs{"google"};
  const std::vector<IdnEntry> idns{entry({'g', 0x043E, 'o', 'g', 'l', 'e'})};
  (void)engine.detect({.references = refs, .idns = idns});
  const auto repeat = engine.detect({.references = refs, .idns = idns});
  EXPECT_EQ(repeat.stats.result_cache_hits, 0u);
  EXPECT_EQ(repeat.stats.result_cache_entries, 0u);
  // The index cache is independent of the response memo and still works.
  EXPECT_EQ(repeat.stats.index_cache_hits, 1u);
}

TEST(SkeletonIndex, RehashMovesEqualLabelsIntoAnotherLabelsBucket) {
  // rehash_changed must move every entry whose canonical stream moved:
  // six equal labels leave their shared bucket for another label's.
  homoglyph::HomoglyphDb db;  // no pairs yet
  std::vector<U32String> labels;
  for (int i = 0; i < 6; ++i) labels.push_back({'b'});  // six identical labels
  labels.push_back({'a'});
  SkeletonIndex index{db, labels};
  EXPECT_EQ(index.bucket_count(), 2u);
  EXPECT_EQ(index.probe(index.hash_of(labels[0])).size(), 6u);

  // {a, b}: every "b" label's canonical stream moves to a's bucket, so a
  // probe must then see all 7.
  const simchar::HomoglyphPair added[] = {{'a', 'b', 1}};
  const auto update = db.apply_update(added);
  EXPECT_EQ(index.rehash_changed(labels, update.canonical_changed), 6u);
  const auto merged = index.probe(index.hash_of(labels[0]));
  ASSERT_EQ(merged.size(), 7u);  // all labels, one canonical stream
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  EXPECT_EQ(index.bucket_count(), 1u);
}

// --- Uniform DetectRequest boundary validation ------------------------------

TEST(Validation, EmptyAsciiReferenceThrowsUnderEveryStrategy) {
  const auto db = test_db();
  const std::vector<std::string> refs{"google", ""};
  const std::vector<IdnEntry> idns{entry({'g', 0x043E, 'o', 'g', 'l', 'e'})};
  for (const auto strategy : {Strategy::kSerial, Strategy::kSkeleton}) {
    const Engine engine{db, {.strategy = strategy, .threads = 1}};
    EXPECT_THROW((void)engine.detect({.references = refs, .idns = idns}),
                 std::invalid_argument)
        << strategy_name(strategy);
  }
}

TEST(Validation, EmptyUnicodeReferenceThrowsUnderEveryStrategy) {
  const auto db = test_db();
  const std::vector<U32String> urefs{{'g', 'o', 'o', 'g', 'l', 'e'}, {}};
  const std::vector<IdnEntry> idns{entry({'g', 0x043E, 'o', 'g', 'l', 'e'})};
  for (const auto strategy : {Strategy::kSerial, Strategy::kSkeleton}) {
    const Engine engine{db, {.strategy = strategy, .threads = 1}};
    EXPECT_THROW(
        (void)engine.detect({.unicode_references = urefs, .idns = idns}),
        std::invalid_argument)
        << strategy_name(strategy);
  }
}

TEST(Validation, EngineThrowsTheExactValidateRequestMessage) {
  // Engine::detect and the standalone validate_request are one boundary:
  // identical exception type AND identical message, whatever the strategy.
  const auto db = test_db();
  const std::vector<std::string> refs{""};
  const std::vector<IdnEntry> idns{entry({'g', 0x043E, 'o', 'g', 'l', 'e'})};
  const DetectRequest request{.references = refs, .idns = idns};
  std::string expected;
  try {
    validate_request(request);
    FAIL() << "validate_request accepted an empty reference";
  } catch (const std::invalid_argument& error) {
    expected = error.what();
  }
  for (const auto strategy : {Strategy::kSerial, Strategy::kSkeleton}) {
    const Engine engine{db, {.strategy = strategy, .threads = 1}};
    try {
      (void)engine.detect(request);
      FAIL() << strategy_name(strategy) << " accepted an empty reference";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string{error.what()}, expected) << strategy_name(strategy);
    }
  }
}

TEST(Validation, BothReferenceSpansSetThrowsEvenWithEmptyZone) {
  // Validation runs before the empty-input short-circuit: a malformed
  // request fails the same way regardless of input size.
  const auto db = test_db();
  const std::vector<std::string> refs{"google"};
  const std::vector<U32String> urefs{{'p', 'i', 'e'}};
  const Engine engine{db, {.strategy = Strategy::kSerial, .threads = 1}};
  EXPECT_THROW(
      (void)engine.detect({.references = refs, .unicode_references = urefs}),
      std::invalid_argument);
  EXPECT_THROW((void)engine.detect({.references = std::vector<std::string>{""}}),
               std::invalid_argument);
}

// --- Concurrent detect() on one shared engine -------------------------------

// N threads hammer a single cached Engine with a randomized mix of
// requests — cold index builds, warm index hits, and response-memo hits
// interleave freely — and every response must be byte-identical to the
// serial cache-free ground truth. Runs under -DSHAM_SANITIZE=thread to
// certify the engine's internal cache against data races.
TEST(ConcurrentEngine, RandomizedInterleavingsMatchSerialGroundTruth) {
  const auto& w = paper_font_workload();

  // Request variants: three reference lists × two IDN snapshots. Two IDN
  // sets force index swaps (cold rebuilds) while repeats hit warm paths.
  std::vector<std::vector<std::string>> ref_lists;
  ref_lists.emplace_back(w.refs.begin(), w.refs.end());
  ref_lists.emplace_back(w.refs.begin(), w.refs.begin() + 40);
  ref_lists.emplace_back(w.refs.begin() + 40, w.refs.begin() + 80);
  std::vector<std::vector<IdnEntry>> idn_sets;
  idn_sets.emplace_back(w.idns.begin(), w.idns.end());
  idn_sets.emplace_back(w.idns.begin(), w.idns.begin() + w.idns.size() / 3);

  std::vector<std::vector<std::vector<Match>>> truth(ref_lists.size());
  for (std::size_t r = 0; r < ref_lists.size(); ++r) {
    for (const auto& idns : idn_sets) {
      truth[r].push_back(fresh_serial(w.db, ref_lists[r], idns));
    }
  }
  ASSERT_FALSE(truth[0][0].empty());  // the workload must produce matches

  constexpr Strategy kMix[] = {Strategy::kSerial, Strategy::kSkeleton};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequestsPerThread = 16;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    const Engine engine{w.db, {.threads = 2}};  // shared; caching on
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        util::Rng rng{seed * 6364136223846793005ULL + t};
        for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
          const auto r = rng.below(ref_lists.size());
          const auto z = rng.below(idn_sets.size());
          const auto result =
              engine.detect({.references = ref_lists[r],
                             .idns = idn_sets[z],
                             .strategy = kMix[rng.below(std::size(kMix))]});
          if (result.matches != truth[r][z]) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0u) << "seed=" << seed;
  }
}

TEST(ConcurrentEngine, SharedEngineBehindServeAndDirectCallersAgree) {
  // The serve path and direct Engine::detect share one engine type; a
  // thread mixing both entry points must still see ground-truth results.
  const auto& w = paper_font_workload();
  const std::vector<std::string> refs{w.refs.begin(), w.refs.begin() + 40};
  const auto expected = fresh_serial(w.db, refs, w.idns);
  ASSERT_FALSE(expected.empty());

  const Engine engine{w.db};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        const auto result = engine.detect({.references = refs, .idns = w.idns});
        if (result.matches != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace sham::detect
