// Property suite for simchar::PairMiner: the block index must emit the
// byte-identical, canonically sorted pair list of the all-pairs oracle —
// across seeds, thresholds 0–8, thread counts, adversarial glyph sets
// where every ink count collides, and the real DejaVu fonts plus the
// paper font.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "font/freetype_font.hpp"
#include "font/paper_font.hpp"
#include "simchar/pair_miner.hpp"
#include "simchar/simchar.hpp"
#include "unicode/idna_properties.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sham::simchar {
namespace {

using unicode::CodePoint;

constexpr int kPixels = font::GlyphBitmap::kSize * font::GlyphBitmap::kSize;

font::GlyphBitmap random_glyph(util::Rng& rng) {
  font::GlyphBitmap g;
  for (auto& w : g.words()) w = rng.next();
  return g;
}

/// A glyph with exactly `popcount` black pixels (uniformly placed).
font::GlyphBitmap fixed_popcount_glyph(util::Rng& rng, int popcount) {
  font::GlyphBitmap g;
  int placed = 0;
  while (placed < popcount) {
    const int bit = static_cast<int>(rng.next() % kPixels);
    const int x = bit % font::GlyphBitmap::kSize;
    const int y = bit / font::GlyphBitmap::kSize;
    if (g.get(x, y)) continue;
    g.set(x, y);
    ++placed;
  }
  return g;
}

/// Flip `count` pixels of `base`, never the same pixel twice: ∆ == count.
font::GlyphBitmap flipped(util::Rng& rng, const font::GlyphBitmap& base, int count) {
  auto g = base;
  int done = 0;
  std::vector<char> used(kPixels, 0);
  while (done < count) {
    const int bit = static_cast<int>(rng.next() % kPixels);
    if (used[bit]) continue;
    used[bit] = 1;
    g.flip(bit % font::GlyphBitmap::kSize, bit / font::GlyphBitmap::kSize);
    ++done;
  }
  return g;
}

/// Move one black pixel to a white position: ∆ == 2, popcount unchanged.
font::GlyphBitmap pixel_moved(util::Rng& rng, const font::GlyphBitmap& base) {
  auto g = base;
  for (;;) {
    const int bit = static_cast<int>(rng.next() % kPixels);
    const int x = bit % font::GlyphBitmap::kSize;
    const int y = bit / font::GlyphBitmap::kSize;
    if (!g.get(x, y)) continue;
    g.set(x, y, false);
    for (;;) {
      const int to = static_cast<int>(rng.next() % kPixels);
      const int tx = to % font::GlyphBitmap::kSize;
      const int ty = to / font::GlyphBitmap::kSize;
      if (g.get(tx, ty)) continue;
      g.set(tx, ty);
      return g;
    }
  }
}

void push(std::vector<MinerGlyph>& glyphs, CodePoint cp, font::GlyphBitmap g) {
  glyphs.push_back({cp, g, g.popcount()});
}

/// Random repertoire: independent noise glyphs (expected pairwise ∆ in the
/// hundreds) plus planted near-duplicate clusters at controlled distances.
std::vector<MinerGlyph> random_repertoire(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<MinerGlyph> glyphs;
  CodePoint cp = 0x100;
  for (int i = 0; i < 40; ++i) push(glyphs, cp++, random_glyph(rng));
  for (int cluster = 0; cluster < 6; ++cluster) {
    const auto base = random_glyph(rng);
    push(glyphs, cp++, base);
    for (const int d : {0, 1, 2, 4, 6, 8, 9}) {
      push(glyphs, cp++, flipped(rng, base, d));
    }
  }
  return glyphs;
}

/// Every glyph has the same ink count, so an ink-count prune would admit
/// all C(n, 2) pairs.
std::vector<MinerGlyph> equal_popcount_repertoire(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<MinerGlyph> glyphs;
  CodePoint cp = 0x2000;
  for (int i = 0; i < 48; ++i) push(glyphs, cp++, fixed_popcount_glyph(rng, 100));
  for (int cluster = 0; cluster < 5; ++cluster) {
    const auto base = fixed_popcount_glyph(rng, 100);
    push(glyphs, cp++, base);
    push(glyphs, cp++, pixel_moved(rng, base));        // ∆ = 2
    push(glyphs, cp++, pixel_moved(rng, pixel_moved(rng, base)));  // ∆ <= 4
  }
  return glyphs;
}

constexpr PairStrategy kConcrete[] = {PairStrategy::kAllPairs,
                                      PairStrategy::kBlockIndex};

constexpr std::uint64_t kSeeds[] = {11, 22, 33, 44, 55};

TEST(PairMinerProperty, StrategiesAgreeOnRandomRepertoires) {
  util::ThreadPool pool{4};
  for (const auto seed : kSeeds) {
    const auto glyphs = random_repertoire(seed);
    for (int threshold = 0; threshold <= 8; ++threshold) {
      const PairMiner truth{glyphs, threshold, PairStrategy::kAllPairs, pool};
      MinerStats truth_stats;
      const auto expected = truth.mine_all(&truth_stats);
      EXPECT_EQ(truth_stats.delta_evaluations,
                glyphs.size() * (glyphs.size() - 1) / 2);
      for (const auto strategy : kConcrete) {
        const PairMiner miner{glyphs, threshold, strategy, pool};
        MinerStats stats;
        EXPECT_EQ(miner.mine_all(&stats), expected)
            << pair_strategy_name(strategy) << " seed " << seed << " threshold "
            << threshold;
        EXPECT_EQ(stats.strategy, strategy);
        EXPECT_LE(stats.delta_evaluations, stats.all_pairs_domain);
        EXPECT_EQ(stats.comparisons_avoided,
                  stats.all_pairs_domain - stats.delta_evaluations);
      }
    }
  }
}

TEST(PairMinerProperty, StrategiesAgreeWhenAllPopcountsCollide) {
  util::ThreadPool pool{4};
  for (const auto seed : kSeeds) {
    const auto glyphs = equal_popcount_repertoire(seed);
    const auto domain = glyphs.size() * (glyphs.size() - 1) / 2;
    for (int threshold = 0; threshold <= 8; ++threshold) {
      const PairMiner truth{glyphs, threshold, PairStrategy::kAllPairs, pool};
      const auto expected = truth.mine_all();
      if (threshold >= 2) {
        EXPECT_GE(expected.size(), 5u);  // the planted ∆ = 2 pairs
      }
      for (const auto strategy : kConcrete) {
        const PairMiner miner{glyphs, threshold, strategy, pool};
        MinerStats stats;
        EXPECT_EQ(miner.mine_all(&stats), expected)
            << pair_strategy_name(strategy) << " seed " << seed << " threshold "
            << threshold;
        if (strategy == PairStrategy::kBlockIndex) {
          EXPECT_LT(stats.delta_evaluations, domain / 4);
        }
      }
    }
  }
}

TEST(PairMinerProperty, ThreadCountNeverChangesTheSequence) {
  const auto glyphs = random_repertoire(kSeeds[0]);
  for (const auto strategy : kConcrete) {
    util::ThreadPool single{1};
    const PairMiner reference{glyphs, 4, strategy, single};
    MinerStats ref_stats;
    const auto expected = reference.mine_all(&ref_stats);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      util::ThreadPool pool{threads};
      const PairMiner miner{glyphs, 4, strategy, pool};
      MinerStats stats;
      // Byte-identical sequence AND identical counters: the per-chunk
      // merge is in chunk order, never scheduling order.
      EXPECT_EQ(miner.mine_all(&stats), expected)
          << pair_strategy_name(strategy) << " @ " << threads;
      EXPECT_EQ(stats.delta_evaluations, ref_stats.delta_evaluations);
    }
  }
}

TEST(PairMinerProperty, MineInvolvingEqualsFilteredMineAll) {
  util::ThreadPool pool{4};
  for (const auto seed : kSeeds) {
    const auto glyphs = random_repertoire(seed);
    // Probe a slice of the repertoire, plus a code point the glyph set
    // does not contain (must be ignored).
    std::unordered_set<CodePoint> probes{0xFFFFF};
    for (std::size_t i = glyphs.size() - 9; i < glyphs.size(); ++i) {
      probes.insert(glyphs[i].cp);
    }
    const PairMiner truth{glyphs, 4, PairStrategy::kAllPairs, pool};
    auto expected = truth.mine_all();
    std::erase_if(expected, [&](const HomoglyphPair& p) {
      return !probes.contains(p.a) && !probes.contains(p.b);
    });
    for (const auto strategy : kConcrete) {
      const PairMiner miner{glyphs, 4, strategy, pool};
      MinerStats stats;
      EXPECT_EQ(miner.mine_involving(probes, &stats), expected)
          << pair_strategy_name(strategy) << " seed " << seed;
      // The probe-side domain is C(n,2) - C(n-|P|,2); every strategy must
      // stay within it.
      EXPECT_LE(stats.delta_evaluations, stats.all_pairs_domain);
    }
  }
}

TEST(PairMiner, BlockIndexStatsFunnelIsConsistent) {
  util::ThreadPool pool{2};
  const auto glyphs = random_repertoire(kSeeds[1]);
  const PairMiner miner{glyphs, 4, PairStrategy::kBlockIndex, pool};
  MinerStats stats;
  const auto pairs = miner.mine_all(&stats);
  EXPECT_EQ(stats.block_tables, 5u);  // θ + 1
  EXPECT_GE(stats.candidates_emitted, stats.candidates_deduped);
  EXPECT_EQ(stats.candidates_deduped, stats.candidates_pruned +
                                          stats.candidates_verified +
                                          stats.candidates_rejected);
  EXPECT_EQ(stats.delta_evaluations,
            stats.candidates_verified + stats.candidates_rejected);
  // Every kept pair came through the candidate funnel exactly once.
  EXPECT_EQ(stats.candidates_verified, pairs.size());
  std::uint64_t buckets = 0;
  for (const auto n : stats.bucket_histogram) buckets += n;
  EXPECT_GT(buckets, 0u);
}

/// Step I as SimCharDb::build runs it: the IDNA-permitted glyphs the font
/// covers.
std::vector<MinerGlyph> render(const font::FontSource& font) {
  std::vector<MinerGlyph> glyphs;
  for (const auto cp : font.coverage()) {
    if (!unicode::is_idna_permitted(cp)) continue;
    if (const auto g = font.glyph(cp)) push(glyphs, cp, *g);
  }
  return glyphs;
}

TEST(PairMiner, BlockIndexFunnelIsPinned) {
  // A changed block layout or key hash still mines the same pairs, so the
  // pair-equality gates cannot see it; the candidate funnel and bucket
  // histogram of the default paper font at θ = 4 can.
  const auto paper = font::make_paper_font({});
  const auto glyphs = render(*paper.font);
  util::ThreadPool pool{2};
  const PairMiner miner{glyphs, 4, PairStrategy::kBlockIndex, pool};
  MinerStats stats;
  (void)miner.mine_all(&stats);
  EXPECT_EQ(stats.delta_evaluations, 7'636u);
  EXPECT_EQ(stats.candidates_emitted, 14'186u);
  EXPECT_EQ(stats.candidates_deduped, 8'488u);
  EXPECT_EQ(stats.candidates_pruned, 852u);
  EXPECT_EQ(stats.candidates_verified, 2'128u);
  EXPECT_EQ(stats.candidates_rejected, 5'508u);
  EXPECT_EQ(stats.bucket_histogram,
            (std::array<std::uint64_t, 8>{58'913, 1'119, 802, 5, 1, 10, 10, 105}));
}

TEST(PairMiner, OversizedThresholdFallsBackToAllPairs) {
  util::ThreadPool pool{2};
  const auto glyphs = random_repertoire(kSeeds[2]);
  // θ + 1 > 16 word blocks: pigeonhole at word granularity is impossible,
  // the miner must fall back (and report it) rather than lose recall.
  const PairMiner miner{glyphs, 16, PairStrategy::kBlockIndex, pool};
  EXPECT_EQ(miner.strategy(), PairStrategy::kAllPairs);
  const PairMiner truth{glyphs, 16, PairStrategy::kAllPairs, pool};
  EXPECT_EQ(miner.mine_all(), truth.mine_all());
  // θ = 15 is the largest block-indexable threshold.
  const PairMiner edge{glyphs, 15, PairStrategy::kBlockIndex, pool};
  EXPECT_EQ(edge.strategy(), PairStrategy::kBlockIndex);
  const PairMiner truth15{glyphs, 15, PairStrategy::kAllPairs, pool};
  EXPECT_EQ(edge.mine_all(), truth15.mine_all());
}

TEST(PairMiner, RejectsNegativeThreshold) {
  util::ThreadPool pool{1};
  const std::vector<MinerGlyph> glyphs;
  EXPECT_THROW((PairMiner{glyphs, -1, PairStrategy::kBlockIndex, pool}),
               std::invalid_argument);
  EXPECT_THROW((PairMiner{glyphs, -1, PairStrategy::kAllPairs, pool}),
               std::invalid_argument);
}

TEST(PairMiner, EmptyAndSingletonInputs) {
  util::ThreadPool pool{2};
  util::Rng rng{7};
  const std::vector<MinerGlyph> none;
  std::vector<MinerGlyph> one;
  push(one, 'x', random_glyph(rng));
  const std::unordered_set<CodePoint> probe_x{'x'};
  for (const auto strategy : kConcrete) {
    const PairMiner empty{none, 4, strategy, pool};
    MinerStats stats;
    EXPECT_TRUE(empty.mine_all(&stats).empty());
    EXPECT_EQ(stats.delta_evaluations, 0u);
    const PairMiner single{one, 4, strategy, pool};
    EXPECT_TRUE(single.mine_all().empty());
    EXPECT_TRUE(single.mine_involving(probe_x).empty());
  }
}

TEST(PairMiner, StrategyNames) {
  EXPECT_EQ(pair_strategy_name(PairStrategy::kBlockIndex), "block-index");
  EXPECT_EQ(pair_strategy_name(PairStrategy::kAllPairs), "all-pairs");
  EXPECT_EQ(BuildOptions{}.pair_strategy, PairStrategy::kBlockIndex);
}

// --- Real-font gate: the block index against the all-pairs oracle --------

/// The pairs of `oracle` with ∆ ≤ θ: an all-pairs build at a larger θ,
/// filtered, is the all-pairs build at θ.
std::vector<HomoglyphPair> within(std::span<const HomoglyphPair> oracle, int theta) {
  std::vector<HomoglyphPair> out;
  for (const auto& p : oracle) {
    if (p.delta <= theta) out.push_back(p);
  }
  return out;
}

/// For θ = 0..8: the default build equals the filtered all-pairs build,
/// and mine_involving over a 50-glyph probe slice equals the filtered
/// all-pairs miner. Returns the build stats at θ = 4.
BuildStats expect_block_index_matches_all_pairs(const font::FontSource& font) {
  constexpr int kMaxTheta = 8;
  BuildOptions oracle_options;
  oracle_options.threshold = kMaxTheta;
  oracle_options.pair_strategy = PairStrategy::kAllPairs;
  const auto oracle = SimCharDb::build(font, oracle_options);

  const auto glyphs = render(font);
  util::ThreadPool pool;
  const PairMiner all_pairs{glyphs, kMaxTheta, PairStrategy::kAllPairs, pool};
  const auto all_pairs_mined = all_pairs.mine_all();
  // The probe slice starts at the first glyph that has a partner, so the
  // incremental check is never vacuous.
  std::unordered_set<CodePoint> paired;
  for (const auto& p : all_pairs_mined) {
    paired.insert(p.a);
    paired.insert(p.b);
  }
  std::size_t first = 0;
  while (first < glyphs.size() && !paired.contains(glyphs[first].cp)) ++first;
  std::unordered_set<CodePoint> probes;
  for (std::size_t i = first; i < glyphs.size() && probes.size() < 50; ++i) {
    probes.insert(glyphs[i].cp);
  }
  auto involving = all_pairs_mined;
  std::erase_if(involving, [&](const HomoglyphPair& p) {
    return !probes.contains(p.a) && !probes.contains(p.b);
  });
  EXPECT_FALSE(involving.empty()) << font.name();

  BuildStats theta4;
  for (int theta = 0; theta <= kMaxTheta; ++theta) {
    BuildOptions options;
    options.threshold = theta;
    BuildStats stats;
    const auto db = SimCharDb::build(font, options, &stats);
    EXPECT_EQ(stats.mining.strategy, PairStrategy::kBlockIndex);
    EXPECT_TRUE(std::ranges::equal(db.pairs(), within(oracle.pairs(), theta)))
        << font.name() << " θ=" << theta;
    const PairMiner miner{glyphs, theta, PairStrategy::kBlockIndex, pool};
    EXPECT_EQ(miner.mine_involving(probes), within(involving, theta))
        << font.name() << " θ=" << theta;
    if (theta == 4) theta4 = stats;
  }
  return theta4;
}

/// Opens a DejaVu face, or skips when FreeType or the file is missing.
font::FontSourcePtr dejavu(const std::string& file) {
  const std::string path = "/usr/share/fonts/truetype/dejavu/" + file;
  if (!font::freetype_available() || !std::filesystem::exists(path)) return nullptr;
  return std::make_shared<font::FreeTypeFont>(path);
}

TEST(RealFontGate, DejaVuSans) {
  const auto font = dejavu("DejaVuSans.ttf");
  if (font == nullptr) GTEST_SKIP() << "FreeType or DejaVuSans.ttf missing";
  const auto stats = expect_block_index_matches_all_pairs(*font);
  // Layout guard: strided blocks deduplicate 29,977 candidates here, the
  // contiguous layout 1,466,533.
  EXPECT_LE(stats.mining.candidates_deduped, 100'000u);
}

TEST(RealFontGate, DejaVuSansMono) {
  const auto font = dejavu("DejaVuSansMono.ttf");
  if (font == nullptr) GTEST_SKIP() << "FreeType or DejaVuSansMono.ttf missing";
  expect_block_index_matches_all_pairs(*font);
}

TEST(RealFontGate, DejaVuSerif) {
  const auto font = dejavu("DejaVuSerif.ttf");
  if (font == nullptr) GTEST_SKIP() << "FreeType or DejaVuSerif.ttf missing";
  expect_block_index_matches_all_pairs(*font);
}

TEST(RealFontGate, PaperFont) {
  const auto paper = font::make_paper_font({});
  expect_block_index_matches_all_pairs(*paper.font);
}

}  // namespace
}  // namespace sham::simchar
