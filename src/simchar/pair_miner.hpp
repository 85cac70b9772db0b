// Step II pair mining: generate every glyph pair with ∆ ≤ θ from a
// rendered repertoire. One candidate generator shared by the full
// SimCharDb::build and the incremental update_with_new_characters path,
// so both are tested (and optimized) once.
//
// Strategies:
//   kBlockIndex    the production path: pigeonhole multi-index hashing.
//                  The 1024-bit bitmap (16 u64 words) is dealt into θ + 1
//                  word blocks, word w to block w mod (θ + 1); a pair with
//                  ∆ ≤ θ has fewer than θ + 1 differing bits, so at least
//                  one block matches *exactly*. One sorted table of
//                  (block key, glyph) entries per block turns Step II into
//                  a walk over runs of equal keys, and each colliding pair
//                  is verified only in the first table where its keys are
//                  equal — zero recall loss, no candidate list. Strided
//                  rather than contiguous blocks keep the blank top and
//                  bottom rows of real glyphs from landing in one block
//                  that nearly every pair shares;
//   kAllPairs      the exhaustive O(n²/2) sweep, exactly as Section 3.3
//                  describes it — the oracle kBlockIndex is checked
//                  against, and the fallback for θ > 15 (more blocks than
//                  bitmap words).
//
// Both strategies return the identical, canonically sorted pair list for
// the same input, deterministic regardless of thread count: work is
// chunked through util::ThreadPool with per-chunk result slots merged in
// chunk order (no mutex-ordered insertion), and the merged list is sorted.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "font/glyph.hpp"
#include "kernels/glyph_panel.hpp"
#include "unicode/codepoint.hpp"

namespace sham::util {
class ThreadPool;
}

namespace sham::simchar {

struct HomoglyphPair {
  unicode::CodePoint a = 0;  // canonical: a < b
  unicode::CodePoint b = 0;
  int delta = 0;

  [[nodiscard]] auto operator<=>(const HomoglyphPair&) const = default;
};

enum class PairStrategy {
  kBlockIndex,  // pigeonhole block tables (exact; the default)
  kAllPairs,    // exhaustive pairwise sweep (the oracle)
};

[[nodiscard]] std::string_view pair_strategy_name(PairStrategy strategy) noexcept;

/// One rendered repertoire member, as the miner consumes it.
struct MinerGlyph {
  unicode::CodePoint cp = 0;
  font::GlyphBitmap glyph;
  int popcount = 0;
};

/// Per-mining-call observability. `delta_evaluations` is the number of
/// full ∆ computations (the quantity Table 5 measures); the candidate
/// counters are only populated by kBlockIndex (zero otherwise).
struct MinerStats {
  PairStrategy strategy = PairStrategy::kAllPairs;  // strategy actually used
  std::uint64_t delta_evaluations = 0;  // delta_bounded calls performed
  /// Pairs an all-pairs sweep over the same domain would have evaluated
  /// (C(n,2) for mine_all; pairs touching a probe for mine_involving).
  std::uint64_t all_pairs_domain = 0;
  std::uint64_t comparisons_avoided = 0;  // all_pairs_domain - delta_evaluations

  // kBlockIndex only:
  std::size_t block_tables = 0;            // block tables built (θ + 1)
  std::uint64_t candidates_emitted = 0;    // key collisions, incl. cross-table dupes
  std::uint64_t candidates_deduped = 0;    // first-table collisions: unique (i, j)
  std::uint64_t candidates_pruned = 0;     // killed by the popcount prune pre-∆
  std::uint64_t candidates_verified = 0;   // ∆ ≤ θ (kept)
  std::uint64_t candidates_rejected = 0;   // ∆ > θ (bucket over-approximation)
  /// Aggregate bucket-occupancy histogram across all block tables: slot i
  /// counts buckets holding exactly i+1 glyphs, last slot aggregates the
  /// tail (same convention as SkeletonIndex::occupancy_histogram). A fixed
  /// array keeps MinerStats and BuildStats free of heap memory: callers
  /// keep one per build, and a small block that outlives each build
  /// fragments the heap under the build's multi-megabyte buffers.
  std::array<std::uint64_t, 8> bucket_histogram{};
};

/// Candidate generator over a fixed glyph set. Construction builds the
/// strategy's index (the θ + 1 block tables, or the all-pairs panel); the
/// incremental update path then probes those same tables with only the
/// added glyphs' keys.
///
/// The glyph span must stay alive and unchanged for the miner's lifetime.
/// Code points are assumed unique across the span (one glyph per cp, as
/// FontSource::coverage guarantees).
class PairMiner {
 public:
  /// kBlockIndex needs θ + 1 ≤ 16 word blocks; for θ > 15 it falls back
  /// to kAllPairs (strategy() reports the fallback). Throws
  /// std::invalid_argument on a negative threshold.
  PairMiner(std::span<const MinerGlyph> glyphs, int threshold,
            PairStrategy strategy, util::ThreadPool& pool);

  /// The strategy mining actually runs under (after any fallback).
  [[nodiscard]] PairStrategy strategy() const noexcept { return strategy_; }

  /// Every pair {a, b} with ∆ ≤ θ, sorted by (a, b) — byte-identical
  /// across strategies and thread counts.
  [[nodiscard]] std::vector<HomoglyphPair> mine_all(MinerStats* stats = nullptr) const;

  /// Every pair with ∆ ≤ θ and at least one endpoint in `probes`
  /// (code points the font does not cover are ignored), sorted by (a, b).
  /// This is the incremental-update path: under kBlockIndex only the
  /// probes' keys are looked up in the prebuilt tables.
  [[nodiscard]] std::vector<HomoglyphPair> mine_involving(
      const std::unordered_set<unicode::CodePoint>& probes,
      MinerStats* stats = nullptr) const;

 private:
  struct ChunkResult;

  void build_block_tables();
  /// True when glyphs i and j have equal keys in a table before `t`: each
  /// pair is verified only in the first table where its keys collide.
  [[nodiscard]] bool collide_earlier(std::uint32_t i, std::uint32_t j,
                                     std::size_t t) const;
  /// Popcount-prune, then ∆-verify, one deduplicated candidate.
  void verify(std::uint32_t i, std::uint32_t j, ChunkResult& out) const;
  void fill_block_stats(MinerStats* stats) const;

  std::span<const MinerGlyph> glyphs_;
  int threshold_ = 0;
  PairStrategy strategy_ = PairStrategy::kAllPairs;
  util::ThreadPool* pool_;

  /// kAllPairs: SoA copy of the glyph bitmaps for the batched ∆ kernel,
  /// column k = glyph k. kBlockIndex builds no panel.
  kernels::GlyphPanel panel_;
  /// kBlockIndex: keys_[t · n + g] is glyph g's block key in table t,
  /// hashed straight from the glyph's words t, t + (θ + 1), …, and
  /// tables_[t] holds every glyph's packed (key, glyph) entry, sorted, so
  /// glyphs whose block words hash alike form one run. Hash collisions
  /// between distinct block contents only add candidates; verification
  /// absorbs them, so correctness never depends on the hash.
  std::vector<std::uint32_t> keys_;
  std::vector<std::vector<std::uint64_t>> tables_;
};

}  // namespace sham::simchar
