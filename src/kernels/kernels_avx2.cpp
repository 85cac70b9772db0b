// AVX2 kernel variants. Compiled with -mavx2 -mpopcnt in its own TU; the
// dispatcher only hands out this table when cpuid reports AVX2, so no
// function here runs on a host without it.
//
//   delta_batch  4 glyphs per pass: one 256-bit load per word row XORed
//                against the broadcast query word, bytewise popcount via
//                the classic nibble-LUT pshufb, horizontal-summed with
//                psadbw into 4 u64 lanes. Byte accumulators are safe: 16
//                words x <= 8 set bits per byte = 128 < 256.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "kernels/kernel_table.hpp"

namespace sham::kernels::detail {

namespace {

/// Per-byte popcount of a 256-bit register (nibble lookup).
inline __m256i popcount_bytes(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

void delta_batch_avx2(const std::uint64_t* query, const std::uint64_t* rows,
                      std::size_t stride, std::size_t begin, std::size_t end,
                      std::int32_t* out) {
  __m256i q[kGlyphWords];
  for (std::size_t w = 0; w < kGlyphWords; ++w) {
    q[w] = _mm256_set1_epi64x(static_cast<long long>(query[w]));
  }
  std::size_t g = begin;
  for (; g + 4 <= end; g += 4) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t w = 0; w < kGlyphWords; ++w) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rows + w * stride + g));
      acc = _mm256_add_epi8(acc, popcount_bytes(_mm256_xor_si256(v, q[w])));
    }
    const __m256i sums = _mm256_sad_epu8(acc, _mm256_setzero_si256());
    alignas(32) std::uint64_t lane[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), sums);
    std::int32_t* o = out + (g - begin);
    o[0] = static_cast<std::int32_t>(lane[0]);
    o[1] = static_cast<std::int32_t>(lane[1]);
    o[2] = static_cast<std::int32_t>(lane[2]);
    o[3] = static_cast<std::int32_t>(lane[3]);
  }
  // Tail columns (< 4): hardware-popcnt scalar, same values.
  for (; g < end; ++g) {
    int sum = 0;
    for (std::size_t w = 0; w < kGlyphWords; ++w) {
      sum += static_cast<int>(
          _mm_popcnt_u64(rows[w * stride + g] ^ query[w]));
    }
    out[g - begin] = sum;
  }
}

int delta_one_avx2(const std::uint64_t* a, const std::uint64_t* b) {
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t w = 0; w < kGlyphWords; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi8(acc, popcount_bytes(_mm256_xor_si256(va, vb)));
  }
  const __m256i sums = _mm256_sad_epu8(acc, _mm256_setzero_si256());
  alignas(32) std::uint64_t lane[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), sums);
  return static_cast<int>(lane[0] + lane[1] + lane[2] + lane[3]);
}

constexpr KernelTable kAvx2Table{Level::kAvx2, delta_batch_avx2,
                                 delta_one_avx2};

}  // namespace

const KernelTable* avx2_table() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") ? &kAvx2Table : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace sham::kernels::detail
