// sham_kernels: vectorized kernels for the bit-parallel hot paths, with
// runtime CPU dispatch (ROADMAP "SIMD kernels" item).
//
// Two primitives dominate SimChar Step II and skeleton hashing:
//
//   delta_batch_u1024  ∆ = popcount(A XOR B) of one query bitmap against a
//                      contiguous column range of a GlyphPanel (the Step II
//                      inner loop, Suzuki et al. §3.3/§4.2), and its
//                      single-pair form delta_u1024;
//   fnv1a_span         length-prefixed FNV-1a over u32 streams (the
//                      skeleton-index hash), plus fnv1a_batch4, which runs
//                      four independent chains at once (index build).
//
// block_hash_u1024, PairMiner's pigeonhole block key (a splitmix64 chain
// over a few words of one glyph), is a plain function: the miner hashes
// each glyph's blocks straight from its words, a few nanoseconds a key,
// so a batched kernel would need a panel that costs more to fill than the
// hashing it speeds up.
//
// Every dispatched kernel has a scalar reference implementation plus AVX2
// and NEON variants, compiled in arch-specific TUs and selected ONCE at
// startup into a function-pointer table: x86 probes cpuid (via
// __builtin_cpu_supports), aarch64 always has ASIMD. Tests pin the table
// with force_level() — or the SHAM_KERNEL_LEVEL environment variable
// (scalar | avx2 | neon | auto), read at startup — and assert bit-exact
// agreement with the scalar reference on every reachable level
// (tests/test_kernels.cpp); pair sets, skeleton buckets, and detect()
// output are byte-identical under every level by construction.
//
// Honesty notes, so the dispatch table is never mistaken for magic:
//   * fnv1a_span is a strict hash chain (h = (h ^ byte) * p); the value at
//     step k depends on step k-1, so a single chain cannot be vectorized
//     without changing the hash. Every level therefore runs the same
//     scalar chain for fnv1a_span; the SIMD win is fnv1a_batch4, which
//     puts four *independent* chains in four 64-bit lanes.
//   * NEON has no 64-bit lane multiply, so the NEON table vectorizes the
//     ∆ kernels (vcntq_u8) and keeps the multiply-bound hash kernels on
//     the scalar reference.
//
// The library depends on nothing but the standard library: font, simchar,
// and detect layer on top of it, never the other way around.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "kernels/glyph_panel.hpp"

namespace sham::kernels {

// --- Dispatch ------------------------------------------------------------

enum class Level {
  kScalar = 0,  // portable reference; always available
  kAvx2 = 1,    // x86-64 with AVX2 (checked via cpuid at startup)
  kNeon = 2,    // aarch64 ASIMD
};

[[nodiscard]] std::string_view level_name(Level level) noexcept;
[[nodiscard]] std::optional<Level> parse_level(std::string_view name) noexcept;

/// Levels the host can actually run, scalar first, ascending.
[[nodiscard]] std::vector<Level> supported_levels();

/// The level the dispatch table currently points at.
[[nodiscard]] Level active_level() noexcept;

/// Pin the dispatch table to `level` (for differential testing). Returns
/// false — leaving the table untouched — if the host cannot run it.
bool force_level(Level level) noexcept;

/// Undo force_level(): back to the startup pick (SHAM_KERNEL_LEVEL when
/// set to a runnable level, otherwise the best level the host supports).
void reset_level() noexcept;

/// RAII pin for tests: forces `level` if runnable, restores on scope exit.
class ScopedKernelLevel {
 public:
  explicit ScopedKernelLevel(Level level) noexcept
      : previous_{active_level()}, forced_{force_level(level)} {}
  ~ScopedKernelLevel() { force_level(previous_); }
  ScopedKernelLevel(const ScopedKernelLevel&) = delete;
  ScopedKernelLevel& operator=(const ScopedKernelLevel&) = delete;
  /// False when the host could not run the requested level.
  [[nodiscard]] bool forced() const noexcept { return forced_; }

 private:
  Level previous_;
  bool forced_;
};

// --- Kernels -------------------------------------------------------------

/// out[k] = popcount(query XOR panel glyph (begin + k)) for k in
/// [0, end - begin). `query` points at 16 words; requires end <= size().
void delta_batch_u1024(const std::uint64_t* query, const GlyphPanel& panel,
                       std::size_t begin, std::size_t end,
                       std::int32_t* out) noexcept;

/// Exact ∆ of two 16-word bitmaps (single-pair form of the batch kernel).
[[nodiscard]] int delta_u1024(const std::uint64_t* a,
                              const std::uint64_t* b) noexcept;

/// One block key: the splitmix64 chain over words [first_word, last_word)
/// of `words`, seeded with kBlockHashSeed. PairMiner gathers each strided
/// block's words b, b + (θ + 1), … into one contiguous span and hashes
/// it. Deliberately not dispatched: it defines the hash.
[[nodiscard]] std::uint64_t block_hash_u1024(const std::uint64_t* words,
                                             unsigned first_word,
                                             unsigned last_word) noexcept;

inline constexpr std::uint64_t kBlockHashSeed = 0x9ae16a3b2f90404fULL;

/// FNV-1a over `n` u32 values (4 bytes each, little-endian order), chained
/// from `seed`. The skeleton index feeds [length, canonical stream].
[[nodiscard]] std::uint64_t fnv1a_span(std::uint64_t seed,
                                       const std::uint32_t* values,
                                       std::size_t n) noexcept;

/// Four independent fnv1a_span chains at once: out[c] =
/// fnv1a_span(seeds[c], values[c], lengths[c]). The AVX2 variant runs the
/// four chains in the four 64-bit lanes of one vector register.
void fnv1a_batch4(const std::uint32_t* const values[4],
                  const std::size_t lengths[4], const std::uint64_t seeds[4],
                  std::uint64_t out[4]) noexcept;

}  // namespace sham::kernels
