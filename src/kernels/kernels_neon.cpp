// NEON (aarch64 ASIMD) kernel variants. Only the ∆ kernels are
// vectorized: vcntq_u8 gives a native per-byte popcount, but NEON has no
// 64-bit lane multiply, so the FNV hash kernels stay on the scalar
// reference (see the honesty notes in kernels.hpp).
#include "kernels/kernel_table.hpp"

#if defined(SHAM_KERNELS_HAVE_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

namespace sham::kernels::detail {

namespace {

/// popcount of one 128-bit register, widened to a single u64.
inline std::uint64_t popcount_u128(uint8x16_t v) noexcept {
  return vaddlvq_u8(vcntq_u8(v));
}

void delta_batch_neon(const std::uint64_t* query, const std::uint64_t* rows,
                      std::size_t stride, std::size_t begin, std::size_t end,
                      std::int32_t* out) {
  std::size_t g = begin;
  // Two glyphs per pass: each 128-bit load spans columns g and g+1 of one
  // word row; per-byte counts accumulate over the 16 rows (max 128 < 256),
  // then split into the two 64-bit halves.
  for (; g + 2 <= end; g += 2) {
    uint8x16_t acc = vdupq_n_u8(0);
    for (std::size_t w = 0; w < kGlyphWords; ++w) {
      const uint64x2_t v = vld1q_u64(rows + w * stride + g);
      const uint64x2_t x = veorq_u64(v, vdupq_n_u64(query[w]));
      acc = vaddq_u8(acc, vcntq_u8(vreinterpretq_u8_u64(x)));
    }
    const uint64x2_t sums = vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(acc)));
    out[g - begin] = static_cast<std::int32_t>(vgetq_lane_u64(sums, 0));
    out[g - begin + 1] = static_cast<std::int32_t>(vgetq_lane_u64(sums, 1));
  }
  for (; g < end; ++g) {
    std::uint64_t sum = 0;
    for (std::size_t w = 0; w < kGlyphWords; w += 2) {
      uint64x2_t v = {rows[w * stride + g], rows[(w + 1) * stride + g]};
      const uint64x2_t q = {query[w], query[w + 1]};
      sum += popcount_u128(vreinterpretq_u8_u64(veorq_u64(v, q)));
    }
    out[g - begin] = static_cast<std::int32_t>(sum);
  }
}

int delta_one_neon(const std::uint64_t* a, const std::uint64_t* b) {
  uint8x16_t acc = vdupq_n_u8(0);
  for (std::size_t w = 0; w < kGlyphWords; w += 2) {
    const uint64x2_t va = vld1q_u64(a + w);
    const uint64x2_t vb = vld1q_u64(b + w);
    acc = vaddq_u8(acc, vcntq_u8(vreinterpretq_u8_u64(veorq_u64(va, vb))));
  }
  // Widening reduction: per-byte counts stay <= 64 (8 passes x 8 bits) but
  // the 1024-bit delta can reach 1024, so a u8 reduction would wrap mod 256.
  return static_cast<int>(vaddlvq_u8(acc));
}

constexpr KernelTable kNeonTable{
    Level::kNeon, delta_batch_neon, delta_one_neon,
    fnv1a_scalar, fnv1a4_scalar,
};

}  // namespace

const KernelTable* neon_table() noexcept { return &kNeonTable; }

}  // namespace sham::kernels::detail

#endif  // SHAM_KERNELS_HAVE_NEON && __aarch64__
