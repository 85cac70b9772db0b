// Internal dispatch-table contract shared by kernels.cpp and the
// arch-specific TUs (kernels_avx2.cpp / kernels_neon.cpp). Not installed
// into the public surface — include kernels/kernels.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hpp"

namespace sham::kernels::detail {

/// One fully-populated variant set. Raw pointers + stride (not GlyphPanel)
/// so arch TUs stay free of layout assumptions beyond "row-linear".
struct KernelTable {
  Level level;
  void (*delta_batch)(const std::uint64_t* query, const std::uint64_t* rows,
                      std::size_t stride, std::size_t begin, std::size_t end,
                      std::int32_t* out);
  int (*delta_one)(const std::uint64_t* a, const std::uint64_t* b);
  std::uint64_t (*fnv1a)(std::uint64_t seed, const std::uint32_t* values,
                         std::size_t n);
  void (*fnv1a4)(const std::uint32_t* const values[4],
                 const std::size_t lengths[4], const std::uint64_t seeds[4],
                 std::uint64_t out[4]);
};

// Scalar reference implementations (kernels.cpp). Arch tables may reuse
// them for tails and for chain-bound kernels they cannot improve.
void delta_batch_scalar(const std::uint64_t* query, const std::uint64_t* rows,
                        std::size_t stride, std::size_t begin, std::size_t end,
                        std::int32_t* out);
int delta_one_scalar(const std::uint64_t* a, const std::uint64_t* b);
std::uint64_t fnv1a_scalar(std::uint64_t seed, const std::uint32_t* values,
                           std::size_t n);
void fnv1a4_scalar(const std::uint32_t* const values[4],
                   const std::size_t lengths[4], const std::uint64_t seeds[4],
                   std::uint64_t out[4]);

inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

#if defined(SHAM_KERNELS_HAVE_AVX2)
/// nullptr when the build has AVX2 code but the host CPU lacks it.
const KernelTable* avx2_table() noexcept;
#endif
#if defined(SHAM_KERNELS_HAVE_NEON)
const KernelTable* neon_table() noexcept;
#endif

}  // namespace sham::kernels::detail
