#include "simchar/pair_miner.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>

#include "kernels/kernels.hpp"
#include "util/thread_pool.hpp"

namespace sham::simchar {

/// Per-chunk Step II output slot: owned by one chunk during the scan,
/// merged in chunk order afterwards so the emitted sequence (and every
/// counter) is independent of thread scheduling.
struct PairMiner::ChunkResult {
  std::vector<HomoglyphPair> found;
  std::uint64_t delta_evaluations = 0;
  // kBlockIndex candidate funnel.
  std::uint64_t emitted = 0;
  std::uint64_t deduped = 0;
  std::uint64_t pruned = 0;
  std::uint64_t rejected = 0;
};

namespace {

/// Chunk count for deterministic parallel_for_chunks fan-out: enough
/// chunks to load-balance irregular work without drowning in merge cost.
std::size_t chunk_count(const util::ThreadPool& pool, std::size_t domain) {
  if (domain == 0) return 1;
  return std::min(domain, std::max<std::size_t>(1, pool.thread_count() * 4));
}

/// Merge the per-chunk slots, in chunk order, into `pairs` and `stats`.
/// A template only because PairMiner::ChunkResult is private.
template <typename Chunks>
void finish(const Chunks& chunks, std::vector<HomoglyphPair>& pairs, MinerStats* stats) {
  std::size_t total = 0;
  for (const auto& c : chunks) total += c.found.size();
  pairs.reserve(total);
  for (const auto& c : chunks) {
    pairs.insert(pairs.end(), c.found.begin(), c.found.end());
    if (stats != nullptr) {
      stats->delta_evaluations += c.delta_evaluations;
      stats->candidates_emitted += c.emitted;
      stats->candidates_deduped += c.deduped;
      stats->candidates_pruned += c.pruned;
      stats->candidates_rejected += c.rejected;
    }
  }
  if (stats != nullptr) {
    stats->candidates_verified = stats->candidates_deduped -
                                 stats->candidates_pruned -
                                 stats->candidates_rejected;
  }
  // Canonical output order: both strategies (at any thread count) emit the
  // byte-identical sequence.
  std::sort(pairs.begin(), pairs.end());
}

/// A block-table entry packs (key << 32) | glyph, so ascending entries are
/// ordered by key and, within a run of equal keys, by glyph.
constexpr std::uint64_t entry(std::uint32_t key, std::uint32_t glyph) noexcept {
  return (static_cast<std::uint64_t>(key) << 32) | glyph;
}
constexpr std::uint32_t key_of(std::uint64_t e) noexcept {
  return static_cast<std::uint32_t>(e >> 32);
}
constexpr std::uint32_t glyph_of(std::uint64_t e) noexcept {
  return static_cast<std::uint32_t>(e);
}

/// Stable LSD radix sort of entries by key, one key byte per pass. The
/// entries arrive in ascending glyph order, so the result is sorted by
/// (key, glyph) — several times faster than std::sort at these sizes.
void sort_by_key(std::vector<std::uint64_t>& entries) {
  std::vector<std::uint64_t> buffer(entries.size());
  for (int shift = 32; shift < 64; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const auto e : entries) ++start[((e >> shift) & 0xFF) + 1];
    for (int d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const auto e : entries) buffer[start[(e >> shift) & 0xFF]++] = e;
    entries.swap(buffer);
  }
}

/// End of the run of equal keys that starts at `lo`.
std::size_t run_end(const std::vector<std::uint64_t>& table, std::size_t lo) {
  std::size_t hi = lo + 1;
  while (hi < table.size() && key_of(table[hi]) == key_of(table[lo])) ++hi;
  return hi;
}

}  // namespace

std::string_view pair_strategy_name(PairStrategy strategy) noexcept {
  switch (strategy) {
    case PairStrategy::kBlockIndex: return "block-index";
    case PairStrategy::kAllPairs: return "all-pairs";
  }
  return "unknown";
}

PairMiner::PairMiner(std::span<const MinerGlyph> glyphs, int threshold,
                     PairStrategy strategy, util::ThreadPool& pool)
    : glyphs_{glyphs}, threshold_{threshold}, strategy_{strategy}, pool_{&pool} {
  if (threshold < 0) throw std::invalid_argument{"PairMiner: threshold < 0"};
  // Pigeonhole needs θ + 1 blocks; at word granularity the 16-word bitmap
  // caps that at θ ≤ 15. Beyond it, fall back to the exhaustive sweep.
  if (threshold_ + 1 > font::GlyphBitmap::kWords) strategy_ = PairStrategy::kAllPairs;
  if (strategy_ == PairStrategy::kBlockIndex) {
    build_block_tables();
    return;
  }
  panel_.reset(glyphs_.size());
  for (std::size_t i = 0; i < glyphs_.size(); ++i) {
    panel_.set_glyph(i, glyphs_[i].glyph.words().data());
  }
}

void PairMiner::build_block_tables() {
  constexpr std::size_t kWords = font::GlyphBitmap::kWords;
  const std::size_t n = glyphs_.size();
  const std::size_t blocks = static_cast<std::size_t>(threshold_) + 1;
  // Strided layout: word w goes to block w mod (θ + 1). Real glyphs are
  // blank in their top and bottom rows, so contiguous blocks would give
  // almost every pair one shared all-blank block. Block b's key is the
  // high half of the 64-bit hash of words b, b + (θ + 1), …, gathered in
  // that order straight from the glyph: 32 bits keep hash collisions
  // rare, and collisions only add candidates.
  keys_.resize(blocks * n);
  tables_.assign(blocks, std::vector<std::uint64_t>(n));
  pool_->parallel_for(0, n, [&](std::size_t begin, std::size_t end) {
    std::array<std::uint64_t, kWords> block{};
    for (std::size_t i = begin; i < end; ++i) {
      const auto& words = glyphs_[i].glyph.words();
      for (std::size_t b = 0; b < blocks; ++b) {
        unsigned count = 0;
        for (std::size_t w = b; w < kWords; w += blocks) block[count++] = words[w];
        const auto key =
            static_cast<std::uint32_t>(kernels::block_hash_u1024(block.data(), 0, count) >> 32);
        keys_[b * n + i] = key;
        tables_[b][i] = entry(key, static_cast<std::uint32_t>(i));
      }
    }
  });
  pool_->parallel_for(
      0, blocks,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) sort_by_key(tables_[b]);
      },
      blocks);
}

bool PairMiner::collide_earlier(std::uint32_t i, std::uint32_t j, std::size_t t) const {
  const std::size_t n = glyphs_.size();
  for (std::size_t s = 0; s < t; ++s) {
    if (keys_[s * n + i] == keys_[s * n + j]) return true;
  }
  return false;
}

void PairMiner::verify(std::uint32_t i, std::uint32_t j, ChunkResult& out) const {
  ++out.deduped;
  const auto& gi = glyphs_[i];
  const auto& gj = glyphs_[j];
  // The popcount prune composes with the block index: ∆ ≥ |Δink|, so an
  // over-threshold ink gap kills the candidate without a full ∆.
  if (std::abs(gi.popcount - gj.popcount) > threshold_) {
    ++out.pruned;
    return;
  }
  ++out.delta_evaluations;
  const int d = kernels::delta_u1024(gi.glyph.words().data(), gj.glyph.words().data());
  if (d <= threshold_) {
    auto [a, b] = std::minmax(gi.cp, gj.cp);
    out.found.push_back({a, b, d});
  } else {
    ++out.rejected;
  }
}

void PairMiner::fill_block_stats(MinerStats* stats) const {
  if (stats == nullptr) return;
  stats->block_tables = tables_.size();
  auto& histogram = stats->bucket_histogram;
  for (const auto& table : tables_) {
    for (std::size_t lo = 0, hi = 0; lo < table.size(); lo = hi) {
      hi = run_end(table, lo);
      ++histogram[std::min(hi - lo - 1, histogram.size() - 1)];
    }
  }
}

std::vector<HomoglyphPair> PairMiner::mine_all(MinerStats* stats) const {
  if (stats != nullptr) {
    *stats = {};
    stats->strategy = strategy_;
    const std::uint64_t n = glyphs_.size();
    stats->all_pairs_domain = n * (n - 1) / 2;
  }
  std::vector<HomoglyphPair> pairs;
  const std::size_t n = glyphs_.size();
  if (n >= 2 && strategy_ == PairStrategy::kAllPairs) {
    const auto chunks = chunk_count(*pool_, n);
    std::vector<ChunkResult> slots(chunks);
    pool_->parallel_for_chunks(
        0, n, chunks, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          auto& slot = slots[chunk];
          std::vector<std::int32_t> deltas(n);
          for (std::size_t i = begin; i < end; ++i) {
            const auto& gi = glyphs_[i];
            if (i + 1 >= n) continue;
            // One batched ∆ row: glyph i against every later column.
            kernels::delta_batch_u1024(gi.glyph.words().data(), panel_, i + 1, n,
                                       deltas.data());
            slot.delta_evaluations += n - i - 1;
            for (std::size_t j = i + 1; j < n; ++j) {
              const int d = deltas[j - i - 1];
              if (d <= threshold_) {
                auto [a, b] = std::minmax(gi.cp, glyphs_[j].cp);
                slot.found.push_back({a, b, d});
              }
            }
          }
        });
    finish(slots, pairs, stats);
  } else if (n >= 2) {
    // One task per table walks its runs of equal keys; every pair inside a
    // run is a candidate, verified here unless an earlier table has it.
    std::vector<ChunkResult> slots(tables_.size());
    pool_->parallel_for_chunks(
        0, tables_.size(), tables_.size(),
        [&](std::size_t t, std::size_t, std::size_t) {
          const auto& table = tables_[t];
          auto& slot = slots[t];
          for (std::size_t lo = 0, hi = 0; lo < table.size(); lo = hi) {
            hi = run_end(table, lo);
            const std::uint64_t run = hi - lo;
            slot.emitted += run * (run - 1) / 2;
            for (std::size_t x = lo; x < hi; ++x) {
              const auto i = glyph_of(table[x]);
              for (std::size_t y = x + 1; y < hi; ++y) {
                const auto j = glyph_of(table[y]);
                if (!collide_earlier(i, j, t)) verify(i, j, slot);
              }
            }
          }
        });
    finish(slots, pairs, stats);
    fill_block_stats(stats);
  }
  if (stats != nullptr) {
    stats->comparisons_avoided = stats->all_pairs_domain - stats->delta_evaluations;
  }
  return pairs;
}

std::vector<HomoglyphPair> PairMiner::mine_involving(
    const std::unordered_set<unicode::CodePoint>& probes, MinerStats* stats) const {
  const std::size_t n = glyphs_.size();
  // Probe glyph indices, ascending; is_probe flags for the dedupe rule: a
  // probe-probe pair is emitted only from its smaller-index side.
  std::vector<std::uint32_t> probe_indices;
  std::vector<char> is_probe(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (probes.contains(glyphs_[i].cp)) {
      probe_indices.push_back(i);
      is_probe[i] = 1;
    }
  }
  if (stats != nullptr) {
    *stats = {};
    stats->strategy = strategy_;
    const std::uint64_t total = n;
    const std::uint64_t rest = n - probe_indices.size();
    stats->all_pairs_domain = total * (total - 1) / 2 - rest * (rest - 1) / 2;
  }
  const auto skip = [&](std::uint32_t probe, std::uint32_t other) {
    return other == probe || (is_probe[other] && other < probe);
  };

  std::vector<HomoglyphPair> pairs;
  if (!probe_indices.empty() && n >= 2) {
    const auto chunks = chunk_count(*pool_, probe_indices.size());
    std::vector<ChunkResult> slots(chunks);
    pool_->parallel_for_chunks(
        0, probe_indices.size(), chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          auto& slot = slots[chunk];
          std::vector<std::int32_t> deltas;
          if (strategy_ == PairStrategy::kAllPairs) deltas.resize(n);
          for (std::size_t k = begin; k < end; ++k) {
            const auto pi = probe_indices[k];
            const auto& gp = glyphs_[pi];
            if (strategy_ == PairStrategy::kBlockIndex) {
              // Look the probe's own keys up in the prebuilt tables: cost
              // scales with |probes| · run length, not with n².
              for (std::size_t t = 0; t < tables_.size(); ++t) {
                const auto& table = tables_[t];
                const auto key = keys_[t * n + pi];
                const auto [lo, hi] =
                    std::equal_range(table.begin(), table.end(), entry(key, 0),
                                     [](std::uint64_t x, std::uint64_t y) {
                                       return key_of(x) < key_of(y);
                                     });
                for (auto it = lo; it != hi; ++it) {
                  const auto j = glyph_of(*it);
                  if (skip(pi, j)) continue;
                  ++slot.emitted;
                  if (!collide_earlier(pi, j, t)) verify(pi, j, slot);
                }
              }
              continue;
            }
            // Batch the whole row; skipped columns are computed but neither
            // emitted nor counted (the counters stay the logical evaluation
            // count the stats tests pin down).
            kernels::delta_batch_u1024(gp.glyph.words().data(), panel_, 0, n,
                                       deltas.data());
            for (std::uint32_t j = 0; j < n; ++j) {
              if (skip(pi, j)) continue;
              ++slot.delta_evaluations;
              const int d = deltas[j];
              if (d <= threshold_) {
                auto [a, b] = std::minmax(gp.cp, glyphs_[j].cp);
                slot.found.push_back({a, b, d});
              }
            }
          }
        });
    finish(slots, pairs, stats);
    if (strategy_ == PairStrategy::kBlockIndex) fill_block_stats(stats);
  }
  if (stats != nullptr) {
    stats->comparisons_avoided = stats->all_pairs_domain - stats->delta_evaluations;
  }
  return pairs;
}

}  // namespace sham::simchar
