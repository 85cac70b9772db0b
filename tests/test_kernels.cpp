// Differential correctness harness for the SIMD kernel layer.
//
// Every kernel is checked bit-exact against a test-local naive reference
// (written here, independent of src/kernels) at EVERY dispatch level the
// host can run — scalar always, AVX2 when supported — over randomized,
// adversarial (all-zero, all-one, single-bit, tail-partial panel sizes),
// and real paper-font bitmaps. The end-to-end section then pins the
// consumer: SimChar pair sets must be byte-identical across levels. The
// stored skeleton hash reads no kernel, and one case per level pins that.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "detect/skeleton_index.hpp"
#include "font/glyph.hpp"
#include "font/paper_font.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "kernels/kernels.hpp"
#include "simchar/simchar.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sham::kernels {
namespace {

using Words = std::array<std::uint64_t, kGlyphWords>;

// --- Test-local references (independent of src/kernels internals) -------

int naive_delta(const Words& a, const Words& b) {
  int sum = 0;
  for (std::size_t w = 0; w < kGlyphWords; ++w) {
    sum += std::popcount(a[w] ^ b[w]);
  }
  return sum;
}

std::uint64_t naive_splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t naive_block_hash(const Words& words, unsigned first, unsigned last) {
  std::uint64_t h = kBlockHashSeed;
  for (unsigned w = first; w < last; ++w) h = naive_splitmix64(h ^ words[w]);
  return h;
}

/// FNV-1a 64 from `seed`, each value fed as its four bytes, low byte first.
std::uint64_t naive_fnv1a(std::uint64_t seed, std::span<const std::uint32_t> values) {
  std::uint64_t h = seed;
  for (const auto x : values) {
    for (int shift = 0; shift < 32; shift += 8) {
      h = (h ^ ((x >> shift) & 0xFF)) * 0x100000001b3ULL;
    }
  }
  return h;
}

// --- Inputs --------------------------------------------------------------

/// Adversarial + randomized glyph word sets. Includes all-zero, all-one,
/// every-other-bit, and single-bit bitmaps at word and bitmap boundaries.
std::vector<Words> glyph_corpus(std::uint64_t seed, std::size_t random_count) {
  std::vector<Words> corpus;
  corpus.push_back(Words{});                                   // all zero
  Words ones;
  ones.fill(~0ULL);
  corpus.push_back(ones);                                      // all one
  Words alt;
  alt.fill(0xAAAAAAAAAAAAAAAAULL);
  corpus.push_back(alt);
  for (const std::size_t bit : {0u, 1u, 63u, 64u, 65u, 512u, 1022u, 1023u}) {
    Words g{};
    g[bit / 64] = 1ULL << (bit % 64);
    corpus.push_back(g);                                       // single bit
  }
  util::Rng rng{seed};
  for (std::size_t i = 0; i < random_count; ++i) {
    Words g;
    for (auto& w : g) w = rng.next();
    corpus.push_back(g);
  }
  return corpus;
}

GlyphPanel panel_of(const std::vector<Words>& glyphs) {
  GlyphPanel panel(glyphs.size());
  for (std::size_t i = 0; i < glyphs.size(); ++i) {
    panel.set_glyph(i, glyphs[i].data());
  }
  return panel;
}

/// Bitmaps of the paper-scale synthetic font — the kernels' real diet.
const std::vector<Words>& paper_font_words() {
  static const auto* words = [] {
    auto* out = new std::vector<Words>;
    font::PaperFontConfig config;
    config.scale = 0.05;
    const auto paper = font::make_paper_font(config);
    for (const auto cp : paper.font->coverage()) {
      const auto glyph = paper.font->glyph(cp);
      if (glyph.has_value()) out->push_back(glyph->words());
    }
    return out;
  }();
  return *words;
}

// --- Dispatch plumbing ---------------------------------------------------

TEST(KernelDispatch, SupportedLevelsStartWithScalarAndAreRunnable) {
  const auto levels = supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
  const auto before = active_level();
  for (const Level level : levels) {
    EXPECT_TRUE(force_level(level)) << level_name(level);
  }
  force_level(before);
}

TEST(KernelDispatch, ForceRejectsUnsupportedAndKeepsActive) {
  const auto levels = supported_levels();
  const ScopedKernelLevel pin{Level::kScalar};
  ASSERT_TRUE(pin.forced());
  // Level 2 has no table anywhere, so every host rejects at least one.
  for (const Level level : {Level::kAvx2, static_cast<Level>(2)}) {
    if (std::find(levels.begin(), levels.end(), level) != levels.end()) continue;
    EXPECT_FALSE(force_level(level)) << level_name(level);
    EXPECT_EQ(active_level(), Level::kScalar);  // untouched on failure
  }
}

TEST(KernelDispatch, ScopedLevelRestoresOnExit) {
  const auto before = active_level();
  {
    ScopedKernelLevel pin{Level::kScalar};
    ASSERT_TRUE(pin.forced());
    EXPECT_EQ(active_level(), Level::kScalar);
  }
  EXPECT_EQ(active_level(), before);
}

// --- GlyphPanel ----------------------------------------------------------

TEST(GlyphPanel, LayoutRoundTripAndZeroPadding) {
  const auto glyphs = glyph_corpus(7, 5);
  const auto panel = panel_of(glyphs);
  ASSERT_EQ(panel.size(), glyphs.size());
  ASSERT_GE(panel.stride(), panel.size());
  EXPECT_EQ(panel.stride() % kPanelPad, 0u);
  for (std::size_t w = 0; w < kGlyphWords; ++w) {
    const auto* row = panel.word_row(w);
    for (std::size_t g = 0; g < glyphs.size(); ++g) {
      EXPECT_EQ(row[g], glyphs[g][w]) << "w=" << w << " g=" << g;
    }
    // Padding columns must stay zero: vector tails may read them.
    for (std::size_t g = glyphs.size(); g < panel.stride(); ++g) {
      EXPECT_EQ(row[g], 0u);
    }
  }
}

TEST(GlyphPanel, CopyAndMovePreserveWords) {
  const auto glyphs = glyph_corpus(9, 3);
  const auto panel = panel_of(glyphs);
  GlyphPanel copy{panel};
  ASSERT_EQ(copy.size(), panel.size());
  EXPECT_EQ(copy.word_row(5)[2], panel.word_row(5)[2]);

  GlyphPanel moved{std::move(copy)};
  EXPECT_EQ(moved.size(), panel.size());
  EXPECT_EQ(moved.word_row(5)[2], panel.word_row(5)[2]);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
}

// --- Differential: ∆ kernels --------------------------------------------

class KernelLevels : public ::testing::TestWithParam<Level> {
 protected:
  void SetUp() override {
    pin_ = std::make_unique<ScopedKernelLevel>(GetParam());
    ASSERT_TRUE(pin_->forced());
  }
  void TearDown() override { pin_.reset(); }

 private:
  std::unique_ptr<ScopedKernelLevel> pin_;
};

TEST_P(KernelLevels, DeltaBatchMatchesNaiveOnCorpusPanels) {
  const auto glyphs = glyph_corpus(11, 40);
  const auto panel = panel_of(glyphs);
  std::vector<std::int32_t> out(glyphs.size());
  for (const auto& query : glyphs) {
    // Full range plus tail-partial subranges around the vector width.
    const std::size_t n = glyphs.size();
    const std::array<std::pair<std::size_t, std::size_t>, 7> ranges{{
        {0, n}, {0, 1}, {0, 3}, {1, 5}, {3, 3}, {n - 9, n}, {n - 1, n},
    }};
    for (const auto& [begin, end] : ranges) {
      std::fill(out.begin(), out.end(), -1);
      delta_batch_u1024(query.data(), panel, begin, end, out.data());
      for (std::size_t k = 0; k < end - begin; ++k) {
        ASSERT_EQ(out[k], naive_delta(query, glyphs[begin + k]))
            << level_name(GetParam()) << " range [" << begin << "," << end
            << ") k=" << k;
      }
    }
  }
}

TEST_P(KernelLevels, DeltaBatchMatchesNaiveOnEverySmallPanelSize) {
  // n = 1..9 exercises every tail case of the 4-lane (AVX2) batch.
  const auto corpus = glyph_corpus(13, 16);
  for (std::size_t n = 1; n <= 9; ++n) {
    const std::vector<Words> glyphs(corpus.begin(), corpus.begin() + n);
    const auto panel = panel_of(glyphs);
    std::vector<std::int32_t> out(n);
    delta_batch_u1024(corpus[10].data(), panel, 0, n, out.data());
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(out[k], naive_delta(corpus[10], glyphs[k])) << "n=" << n;
    }
  }
}

TEST_P(KernelLevels, DeltaOneMatchesNaiveOnCorpusAndPaperFont) {
  const auto corpus = glyph_corpus(17, 25);
  for (const auto& a : corpus) {
    for (const auto& b : corpus) {
      ASSERT_EQ(delta_u1024(a.data(), b.data()), naive_delta(a, b));
    }
  }
  const auto& paper = paper_font_words();
  ASSERT_GT(paper.size(), 10u);
  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(paper.size(), 64); ++i) {
    ASSERT_EQ(delta_u1024(paper[i].data(), paper[i + 1].data()),
              naive_delta(paper[i], paper[i + 1]));
  }
}

TEST_P(KernelLevels, DeltaBatchMatchesNaiveOnPaperFontPanel) {
  const auto& paper = paper_font_words();
  const auto panel = panel_of(paper);
  std::vector<std::int32_t> out(paper.size());
  for (std::size_t q = 0; q < std::min<std::size_t>(paper.size(), 24); ++q) {
    delta_batch_u1024(paper[q].data(), panel, 0, paper.size(), out.data());
    for (std::size_t k = 0; k < paper.size(); ++k) {
      ASSERT_EQ(out[k], naive_delta(paper[q], paper[k])) << "q=" << q;
    }
  }
}

// --- Block keys ---------------------------------------------------------

// block_hash_u1024 is not dispatched; running it under every pinned level
// checks that the keys the miner stores do not depend on the level.
TEST_P(KernelLevels, BlockHashBatchMatchesNaiveAndScalarProbe) {
  const auto glyphs = glyph_corpus(19, 30);
  for (const auto& g : glyphs) {
    // Degenerate and whole-bitmap spans.
    for (const auto& [first, last] : {std::pair{0u, 0u}, {5u, 5u}, {0u, 16u}}) {
      ASSERT_EQ(block_hash_u1024(g.data(), first, last),
                naive_block_hash(g, first, last));
    }
    // Every block the miner hashes: for θ = 0..15, block b holds words
    // b, b + (θ + 1), …, gathered in that order into one contiguous span.
    for (unsigned blocks = 1; blocks <= 16; ++blocks) {
      for (unsigned b = 0; b < blocks; ++b) {
        Words strided{};
        unsigned count = 0;
        std::uint64_t expected = kBlockHashSeed;
        for (unsigned w = b; w < kGlyphWords; w += blocks) {
          strided[count++] = g[w];
          expected = naive_splitmix64(expected ^ g[w]);
        }
        ASSERT_EQ(block_hash_u1024(strided.data(), 0, count), expected)
            << "blocks " << blocks << " block " << b;
      }
    }
  }
}

// --- The stored skeleton hash reads no kernel level ----------------------

// The artifact's SKEL section stores SkeletonIndex's FNV-1a chain, so it
// must come out the same whichever level is pinned. With no pairs,
// canonical() is the identity and a label's stream is [length, label...].
TEST_P(KernelLevels, Fnv1aSpanMatchesNaiveAndChunksExactly) {
  const homoglyph::HomoglyphDb db;
  util::Rng rng{23};
  std::vector<unicode::U32String> labels;
  for (const std::size_t len : {0u, 1u, 2u, 5u, 63u, 64u, 65u, 200u}) {
    unicode::U32String label(len);
    for (auto& c : label) {
      c = static_cast<unicode::CodePoint>(rng.next() % (unicode::kMaxCodePoint + 1));
    }
    labels.push_back(std::move(label));
  }
  const std::span<const unicode::U32String> all{labels};
  const detect::SkeletonIndex whole{db, all};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::vector<std::uint32_t> stream{static_cast<std::uint32_t>(labels[i].size())};
    stream.insert(stream.end(), labels[i].begin(), labels[i].end());
    const auto expected = naive_fnv1a(0xcbf29ce484222325ULL, stream);
    ASSERT_EQ(whole.hash_of(labels[i]), expected) << "label " << i;
    ASSERT_EQ(whole.entry_hash(i), expected) << "label " << i;
  }
  // An entry's hash does not depend on its neighbours: the label list
  // built as two chunks, cut anywhere, gives the whole build's hashes.
  for (std::size_t cut = 0; cut <= labels.size(); ++cut) {
    const detect::SkeletonIndex head{db, all.first(cut)};
    const detect::SkeletonIndex tail{db, all.subspan(cut)};
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const auto chunked = i < cut ? head.entry_hash(i) : tail.entry_hash(i - cut);
      ASSERT_EQ(chunked, whole.entry_hash(i)) << "cut " << cut << " label " << i;
    }
  }
}

// --- End-to-end: pair sets byte-identical across levels -----------------

TEST(KernelEndToEnd, SimCharPairSetsIdenticalAcrossLevelsAndStrategies) {
  font::PaperFontConfig config;
  config.scale = 0.05;
  const auto paper = font::make_paper_font(config);

  for (const auto strategy :
       {simchar::PairStrategy::kAllPairs, simchar::PairStrategy::kBlockIndex}) {
    std::optional<std::vector<simchar::HomoglyphPair>> baseline;
    for (const Level level : supported_levels()) {
      ScopedKernelLevel pin{level};
      ASSERT_TRUE(pin.forced());
      simchar::BuildOptions options;
      options.pair_strategy = strategy;
      options.threads = 2;
      const auto db = simchar::SimCharDb::build(*paper.font, options);
      if (!baseline.has_value()) {
        baseline.emplace(db.pairs().begin(), db.pairs().end());
        ASSERT_FALSE(baseline->empty());
      } else {
        ASSERT_TRUE(std::ranges::equal(db.pairs(), *baseline))
            << pair_strategy_name(strategy) << " @ " << level_name(level);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, KernelLevels,
                         ::testing::ValuesIn(supported_levels()),
                         [](const ::testing::TestParamInfo<Level>& info) {
                           return std::string{level_name(info.param)};
                         });

}  // namespace
}  // namespace sham::kernels
