// sham_kernels: the Step II primitives of SimChar (Suzuki et al. §3.3/§4.2)
// with runtime CPU dispatch.
//
//   delta_batch_u1024  ∆ = popcount(A XOR B) of one query bitmap against a
//                      contiguous column range of a GlyphPanel (the
//                      all-pairs inner loop), and its single-pair form
//                      delta_u1024;
//   block_hash_u1024   PairMiner's pigeonhole block key, a splitmix64 chain
//                      over a few words of one glyph.
//
// Only the ∆ kernels are dispatched: a scalar reference plus an AVX2
// variant, compiled in its own TU and selected ONCE, at first use, into a
// function-pointer table when cpuid (__builtin_cpu_supports) reports AVX2.
// Tests pin the table with ScopedKernelLevel / force_level() and assert
// bit-exact agreement with the scalar reference on every level the host
// runs (tests/test_kernels.cpp), so pair sets are identical under every
// level by construction.
//
// block_hash_u1024 is a plain function: it defines the block key, and the
// miner hashes each glyph's blocks straight from its words, a few
// nanoseconds a key, so a batched kernel would need a panel that costs
// more to fill than the hashing it speeds up.
//
// The library depends on nothing but the standard library: font, simchar
// and db layer on top of it, never the other way around.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "kernels/glyph_panel.hpp"

namespace sham::kernels {

// --- Dispatch ------------------------------------------------------------

enum class Level {
  kScalar = 0,  // portable reference; always available
  kAvx2 = 1,    // x86-64 with AVX2 (checked via cpuid at first use)
};

[[nodiscard]] std::string_view level_name(Level level) noexcept;

/// Levels the host can actually run, scalar first, ascending.
[[nodiscard]] std::vector<Level> supported_levels();

/// The level the dispatch table currently points at.
[[nodiscard]] Level active_level() noexcept;

/// Pin the dispatch table to `level` (for differential testing). Returns
/// false — leaving the table untouched — if the host cannot run it.
bool force_level(Level level) noexcept;

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

}  // namespace sham::kernels
