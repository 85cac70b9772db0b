// Step II pair mining, block index against its all-pairs oracle: a
// strategy × threshold × repertoire-size grid over synthetic repertoires
// whose ink counts cluster tightly, plus rows for the real DejaVu Sans,
// Sans Mono and Serif fonts (skipped when FreeType or a face is missing).
// Every cell is equivalence-checked against the all-pairs ground truth;
// the headline is the ratio of all-pairs ∆ evaluations to block-index ∆
// evaluations on the largest repertoire. Emits BENCH_simchar.json.
//
//   $ ./bench/simchar_pairs          # full grid + JSON
//   $ ./bench/simchar_pairs --smoke  # tiny equivalence grid (perf_smoke)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "font/freetype_font.hpp"
#include "kernels/kernels.hpp"
#include "simchar/pair_miner.hpp"
#include "unicode/idna_properties.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sham;
using simchar::MinerGlyph;
using simchar::MinerStats;
using simchar::PairMiner;
using simchar::PairStrategy;

constexpr int kPixels = font::GlyphBitmap::kSize * font::GlyphBitmap::kSize;

/// A glyph with `ink` black pixels placed uniformly over the full bitmap
/// (every word carries ink, so no block degenerates into a shared bucket).
font::GlyphBitmap ink_glyph(util::Rng& rng, int ink) {
  font::GlyphBitmap g;
  int placed = 0;
  while (placed < ink) {
    const int bit = static_cast<int>(rng.below(kPixels));
    const int x = bit % font::GlyphBitmap::kSize;
    const int y = bit / font::GlyphBitmap::kSize;
    if (g.get(x, y)) continue;
    g.set(x, y);
    ++placed;
  }
  return g;
}

/// Flip exactly `count` distinct pixels: ∆(base, result) == count.
font::GlyphBitmap flipped(util::Rng& rng, const font::GlyphBitmap& base, int count) {
  auto g = base;
  std::vector<char> used(kPixels, 0);
  int done = 0;
  while (done < count) {
    const int bit = static_cast<int>(rng.below(kPixels));
    if (used[bit]) continue;
    used[bit] = 1;
    g.flip(bit % font::GlyphBitmap::kSize, bit / font::GlyphBitmap::kSize);
    ++done;
  }
  return g;
}

/// Adversarial repertoire: noise glyphs with ink drawn from the narrow band
/// [96, 104] (pairwise ∆ in the hundreds, yet every pair inside one popcount
/// window), seasoned with planted homoglyph clusters at ∆ ∈ {1, 2, 4, 8} —
/// one 4-member cluster per 20 glyphs.
std::vector<MinerGlyph> make_repertoire(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<MinerGlyph> glyphs;
  glyphs.reserve(n);
  unicode::CodePoint cp = 0x1000;
  const auto push = [&](const font::GlyphBitmap& g) {
    glyphs.push_back({cp++, g, g.popcount()});
  };
  while (glyphs.size() < n) {
    if (glyphs.size() % 20 == 0 && glyphs.size() + 4 <= n) {
      const auto base = ink_glyph(rng, 96 + static_cast<int>(rng.below(9)));
      push(base);
      for (const int d : {1, 2, 4, 8}) {
        if (glyphs.size() >= n) break;
        push(flipped(rng, base, d));
      }
      continue;
    }
    push(ink_glyph(rng, 96 + static_cast<int>(rng.below(9))));
  }
  return glyphs;
}

/// The IDNA-permitted glyphs a real font covers (SimCharDb::build's Step
/// I), or nothing when FreeType or the face is missing.
std::vector<MinerGlyph> render_font(const std::string& path) {
  std::vector<MinerGlyph> glyphs;
  if (!font::freetype_available() || !std::filesystem::exists(path)) return glyphs;
  const font::FreeTypeFont face{path};
  for (const auto cp : face.coverage()) {
    if (!unicode::is_idna_permitted(cp)) continue;
    if (const auto g = face.glyph(cp)) glyphs.push_back({cp, *g, g->popcount()});
  }
  return glyphs;
}

struct Cell {
  std::string source;  // "synthetic" or the font face
  std::size_t repertoire = 0;
  int threshold = 0;
  PairStrategy strategy = PairStrategy::kAllPairs;
  MinerStats stats;
  std::size_t pairs = 0;
  double seconds = 0.0;
  bool identical = true;
};

int run_smoke() {
  util::ThreadPool pool;    // hardware concurrency
  util::ThreadPool serial{1};
  const auto glyphs = make_repertoire(160, 20260805);
  bool ok = true;
  // θ = 15 is the largest block-indexable threshold and θ = 16 the
  // all-pairs fallback; every kernel level the host can run must agree.
  for (const auto level : kernels::supported_levels()) {
    kernels::ScopedKernelLevel pin{level};
    for (const int threshold : {0, 2, 4, 8, 15, 16}) {
      const PairMiner truth_miner{glyphs, threshold, PairStrategy::kAllPairs, pool};
      const auto truth = truth_miner.mine_all();
      const PairMiner parallel{glyphs, threshold, PairStrategy::kBlockIndex, pool};
      const PairMiner single{glyphs, threshold, PairStrategy::kBlockIndex, serial};
      const bool same = pin.forced() && parallel.mine_all() == truth &&
                        single.mine_all() == truth;
      std::printf("  %-6s θ=%-2d block-index %s\n",
                  std::string{kernels::level_name(level)}.c_str(), threshold,
                  same ? "identical" : "MISMATCH");
      ok = ok && same;
    }
  }
  std::printf("simchar pair-mining smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

const char* verdict(bool met) { return met ? "met" : "FAILED"; }

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  bench::header("SimChar Step II pair mining: block index vs all-pairs");

  util::ThreadPool pool;
  const std::size_t sizes[] = {512, 2048, 6144};
  const int thresholds[] = {2, 4, 8};
  constexpr PairStrategy kStrategies[] = {PairStrategy::kAllPairs,
                                          PairStrategy::kBlockIndex};

  util::TextTable t{{"source", "glyphs", "θ", "strategy", "∆ evals", "domain",
                     "avoided", "candidates", "pairs", "seconds", "identical"},
                    {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                     util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kLeft}};

  std::vector<Cell> cells;
  const auto run_cells = [&](const std::string& source,
                             const std::vector<MinerGlyph>& glyphs, int threshold) {
    // The all-pairs cell doubles as the ground truth for the block index.
    std::vector<simchar::HomoglyphPair> truth;
    for (const auto strategy : kStrategies) {
      Cell cell;
      cell.source = source;
      cell.repertoire = glyphs.size();
      cell.threshold = threshold;
      cell.strategy = strategy;
      util::Stopwatch watch;
      const PairMiner miner{glyphs, threshold, strategy, pool};
      auto pairs = miner.mine_all(&cell.stats);
      cell.seconds = watch.seconds();
      cell.pairs = pairs.size();
      if (strategy == PairStrategy::kAllPairs) {
        truth = std::move(pairs);
      } else {
        cell.identical = pairs == truth;
      }
      cells.push_back(cell);
      const double avoided =
          cell.stats.all_pairs_domain == 0
              ? 0.0
              : 100.0 * static_cast<double>(cell.stats.comparisons_avoided) /
                    static_cast<double>(cell.stats.all_pairs_domain);
      t.add_row({source, util::with_commas(glyphs.size()), std::to_string(threshold),
                 std::string{simchar::pair_strategy_name(strategy)},
                 util::with_commas(cell.stats.delta_evaluations),
                 util::with_commas(cell.stats.all_pairs_domain),
                 util::fixed(avoided, 1) + "%",
                 util::with_commas(cell.stats.candidates_deduped),
                 util::with_commas(cell.pairs), util::fixed(cell.seconds, 4),
                 cell.identical ? "yes" : "NO"});
    }
  };
  for (const auto n : sizes) {
    const auto glyphs = make_repertoire(n, 20260805);
    for (const int threshold : thresholds) run_cells("synthetic", glyphs, threshold);
  }
  // Real fonts at the paper's θ = 4. Blank top and bottom rows are what
  // the strided block layout exists for.
  const std::string dejavu_dir = "/usr/share/fonts/truetype/dejavu/";
  std::uint64_t dejavu_sans_candidates = 0;
  bool dejavu_sans_measured = false;
  for (const std::string face : {"DejaVuSans", "DejaVuSansMono", "DejaVuSerif"}) {
    const auto glyphs = render_font(dejavu_dir + face + ".ttf");
    if (glyphs.empty()) {
      std::printf("[skip] %s: FreeType or the face is missing\n", face.c_str());
      continue;
    }
    run_cells(face, glyphs, 4);
    if (face == "DejaVuSans") {
      dejavu_sans_candidates = cells.back().stats.candidates_deduped;
      dejavu_sans_measured = true;
    }
  }
  std::printf("%s\n", t.str().c_str());

  // Headline: all-pairs ∆ evaluations per block-index evaluation on the
  // largest synthetic repertoire, per threshold.
  const std::size_t largest = sizes[std::size(sizes) - 1];
  bool all_identical = true;
  for (const auto& cell : cells) all_identical = all_identical && cell.identical;
  double ratio_theta4 = 0.0;
  std::string ratio_json;
  for (const int threshold : thresholds) {
    std::uint64_t all = 0;
    std::uint64_t block = 0;
    for (const auto& cell : cells) {
      if (cell.source != "synthetic" || cell.repertoire != largest ||
          cell.threshold != threshold) {
        continue;
      }
      if (cell.strategy == PairStrategy::kAllPairs) {
        all = cell.stats.delta_evaluations;
      } else {
        block = cell.stats.delta_evaluations;
      }
    }
    const double ratio =
        static_cast<double>(all) / static_cast<double>(std::max<std::uint64_t>(block, 1));
    if (threshold == 4) ratio_theta4 = ratio;
    std::printf("θ=%d, %s glyphs: all-pairs %s ∆ vs block index %s ∆ -> %.1fx fewer\n",
                threshold, util::with_commas(largest).c_str(),
                util::with_commas(all).c_str(), util::with_commas(block).c_str(), ratio);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s\"%d\": %.1f", ratio_json.empty() ? "" : ", ",
                  threshold, ratio);
    ratio_json += buf;
  }

  bench::shape("every block-index cell identical to all-pairs", all_identical);
  const bool ratio_met = ratio_theta4 >= 1000.0;
  bench::shape("block index ≥1,000x fewer ∆ than all-pairs at θ=4 (largest grid)",
               ratio_met);
  // Layout guard: contiguous blocks deduplicate 1,466,533 candidates on
  // DejaVu Sans at θ = 4, strided blocks 29,977.
  const bool candidates_met = dejavu_sans_candidates <= 100'000;
  if (dejavu_sans_measured) {
    bench::shape("DejaVu Sans θ=4 block index dedupes ≤100,000 candidates",
                 candidates_met);
  } else {
    std::printf("  shape: DejaVu Sans candidate guard                      "
                "[SKIPPED: font missing]\n");
  }

  // Parallel speedup on the heaviest cell (all-pairs, θ=4, largest
  // repertoire). Recorded hardware_skipped only on a single-core host —
  // any multi-core box must beat the serial pool.
  const unsigned hw = std::thread::hardware_concurrency();
  double parallel_speedup = 0.0;
  bool parallel_identical = true;
  {
    util::ThreadPool serial{1};
    const auto glyphs = make_repertoire(largest, 20260805);
    const PairMiner serial_miner{glyphs, 4, PairStrategy::kAllPairs, serial};
    util::Stopwatch serial_watch;
    const auto serial_pairs = serial_miner.mine_all();
    const double serial_seconds = serial_watch.seconds();
    const PairMiner parallel_miner{glyphs, 4, PairStrategy::kAllPairs, pool};
    util::Stopwatch parallel_watch;
    const auto parallel_pairs = parallel_miner.mine_all();
    const double parallel_seconds = parallel_watch.seconds();
    parallel_speedup = serial_seconds / std::max(parallel_seconds, 1e-9);
    parallel_identical = parallel_pairs == serial_pairs;
    std::printf("parallel mine_all (θ=4, %s glyphs): serial %.3fs, pool %.3fs "
                "-> %.2fx (%u hardware threads)\n",
                util::with_commas(largest).c_str(), serial_seconds,
                parallel_seconds, parallel_speedup, hw);
    if (hw >= 2) {
      bench::shape("thread pool beats the serial miner on the heaviest cell",
                   parallel_speedup >= 1.2);
    } else {
      std::printf("  shape: thread-pool speedup on the heaviest cell       "
                  "[SKIPPED: single-core host]\n");
    }
  }

  std::string grid_json;
  for (const auto& cell : cells) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"source\": \"%s\", \"repertoire\": %zu, \"threshold\": %d, "
                  "\"strategy\": \"%s\", \"delta_evaluations\": %llu, "
                  "\"all_pairs_domain\": %llu, \"comparisons_avoided\": %llu, "
                  "\"candidates_deduped\": %llu, \"pairs\": %zu, \"seconds\": %.6f, "
                  "\"identical_to_all_pairs\": %s}%s\n",
                  cell.source.c_str(), cell.repertoire, cell.threshold,
                  std::string{simchar::pair_strategy_name(cell.strategy)}.c_str(),
                  static_cast<unsigned long long>(cell.stats.delta_evaluations),
                  static_cast<unsigned long long>(cell.stats.all_pairs_domain),
                  static_cast<unsigned long long>(cell.stats.comparisons_avoided),
                  static_cast<unsigned long long>(cell.stats.candidates_deduped),
                  cell.pairs, cell.seconds, cell.identical ? "true" : "false",
                  &cell == &cells.back() ? "" : ",");
    grid_json += buf;
  }

  if (std::FILE* f = std::fopen("BENCH_simchar.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"simchar_pairs\",\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"grid\": [\n%s  ],\n"
                 "  \"largest_repertoire\": %zu,\n"
                 "  \"all_pairs_vs_block_delta_ratio\": {%s},\n"
                 "  \"all_pairs_vs_block_delta_ratio_theta4\": %.1f,\n"
                 "  \"identical_to_all_pairs_in_every_cell\": %s,\n"
                 "  \"dejavu_sans_candidates_deduped_theta4\": %llu,\n"
                 "  \"parallel_speedup_theta4\": %.2f,\n"
                 "  \"parallel_identical_to_serial\": %s,\n"
                 "  \"parallel_speedup_criterion\": \"%s\",\n"
                 "  \"block_index_1000x_criterion\": \"%s\",\n"
                 "  \"dejavu_sans_candidate_criterion\": \"%s\"\n"
                 "}\n",
                 hw, grid_json.c_str(), largest, ratio_json.c_str(), ratio_theta4,
                 all_identical ? "true" : "false",
                 static_cast<unsigned long long>(dejavu_sans_candidates),
                 parallel_speedup, parallel_identical ? "true" : "false",
                 hw >= 2 ? verdict(parallel_speedup >= 1.2) : "hardware_skipped",
                 verdict(all_identical && ratio_met),
                 dejavu_sans_measured ? verdict(candidates_met) : "font_missing");
    std::fclose(f);
    std::printf("wrote BENCH_simchar.json\n");
  }
  return all_identical && parallel_identical ? 0 : 1;
}
