// The zone reader's line tokenizer, internal to src/dns: zone_stream.cpp
// runs it, and tests/test_dns.cpp pins it to a byte-at-a-time oracle.
//
// A line is scanned in 64-byte windows. Each window becomes one 64-bit
// separator mask (bit i = byte i is whitespace, lies in the comment from
// the first ';' on, or lies past the line's end), and token starts and
// ends fall out of that mask with shifts and ctz. So every byte of a line
// is classified once, by mask.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sham::dns::detail {

/// A record line reads at most six tokens (owner, TTL, class, type, MX
/// priority, host), so splitting stops at kMaxTokens; a directive with
/// extra tokens still counts more than two.
constexpr std::size_t kMaxTokens = 8;
using Tokens = std::array<std::string_view, kMaxTokens>;

/// Bit i of `space` is set when byte i of a 64-byte window is one of the
/// six whitespace bytes of the "C" locale (' ', '\t', '\n', '\v', '\f',
/// '\r'); bit i of `semicolon` when it is ';'.
struct WindowMasks {
  std::uint64_t space = 0;
  std::uint64_t semicolon = 0;

  friend bool operator==(const WindowMasks&, const WindowMasks&) = default;
};

/// Bit 0: a "C"-locale whitespace byte; bit 1: ';'.
inline constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (const unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) table[c] = 1;
  table[';'] = 2;
  return table;
}();

/// The masks of the 64 bytes at `window`, one table lookup per byte: the
/// portable builder, and the oracle of the SSE2 one.
[[nodiscard]] inline WindowMasks window_masks_table(const char* window) noexcept {
  WindowMasks masks;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t byte_class = kByteClass[static_cast<unsigned char>(window[i])];
    masks.space |= (byte_class & 1) << i;
    masks.semicolon |= (byte_class >> 1) << i;
  }
  return masks;
}

#if defined(__SSE2__)
/// The same masks from four 16-byte compares. SSE2 is the x86-64 baseline,
/// so no runtime dispatch is needed.
[[nodiscard]] inline WindowMasks window_masks_sse2(const char* window) noexcept {
  const __m128i space = _mm_set1_epi8(' ');
  const __m128i semicolon = _mm_set1_epi8(';');
  // Adding 0x80 - 0x09 moves '\t'..'\r' (0x09-0x0D) to the five lowest
  // signed values, so one signed compare finds all five.
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80 - 0x09));
  const __m128i limit = _mm_set1_epi8(static_cast<char>(-128 + 5));
  const auto bits = [](__m128i lanes) {
    return std::uint64_t{static_cast<std::uint16_t>(_mm_movemask_epi8(lanes))};
  };
  WindowMasks masks;
  for (int k = 0; k < 4; ++k) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(window + 16 * k));
    const __m128i is_space =
        _mm_or_si128(_mm_cmpeq_epi8(bytes, space),
                     _mm_cmplt_epi8(_mm_add_epi8(bytes, bias), limit));
    masks.space |= bits(is_space) << (16 * k);
    masks.semicolon |= bits(_mm_cmpeq_epi8(bytes, semicolon)) << (16 * k);
  }
  return masks;
}
#endif

/// Split `line` on runs of whitespace into `out`, ignoring everything from
/// the first ';' on (a comment); returns the token count, at most
/// kMaxTokens. `readable` >= line.size() bytes from line.data() may be
/// read: a window is loaded in place only when all 64 of its bytes are
/// readable, and copied into a space-padded buffer otherwise.
std::size_t split_tokens(std::string_view line, std::size_t readable, Tokens& out) noexcept;

}  // namespace sham::dns::detail
