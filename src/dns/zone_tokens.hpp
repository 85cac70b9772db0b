// The zone reader's line walk, internal to src/dns: zone_stream.cpp runs
// it, and tests/test_dns.cpp pins it to a byte-at-a-time oracle.
//
// A run of lines is scanned in consecutive 64-byte windows. Each window
// becomes three 64-bit masks (bit i = byte i is whitespace, is ';', is
// '\n'), and line ends, token starts and ends, and each line's comment cut
// all fall out of those masks with shifts and ctz. So every byte is
// classified once, by mask, whatever the length of its line.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sham::dns::detail {

/// A record line reads at most six tokens (owner, TTL, class, type, MX
/// priority, host), so a line keeps at most kMaxTokens; a directive with
/// extra tokens still counts more than two.
constexpr std::size_t kMaxTokens = 8;
using Tokens = std::array<std::string_view, kMaxTokens>;

/// Bit i of `space` is set when byte i of a 64-byte window is one of the
/// six whitespace bytes of the "C" locale (' ', '\t', '\n', '\v', '\f',
/// '\r'); bit i of `semicolon` when it is ';'; bit i of `newline` when it
/// is '\n' (so `newline` is a subset of `space`).
struct WindowMasks {
  std::uint64_t space = 0;
  std::uint64_t semicolon = 0;
  std::uint64_t newline = 0;

  friend bool operator==(const WindowMasks&, const WindowMasks&) = default;
};

/// Bit 0: a "C"-locale whitespace byte; bit 1: ';'; bit 2: '\n'.
inline constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (const unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) table[c] = 1;
  table[';'] = 2;
  table['\n'] |= 4;
  return table;
}();

/// The masks of the 64 bytes at `window`, one table lookup per byte: the
/// portable builder, and the oracle of the SSE2 one.
[[nodiscard]] inline WindowMasks window_masks_table(const char* window) noexcept {
  WindowMasks masks;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t byte_class = kByteClass[static_cast<unsigned char>(window[i])];
    masks.space |= (byte_class & 1) << i;
    masks.semicolon |= ((byte_class >> 1) & 1) << i;
    masks.newline |= (byte_class >> 2) << i;
  }
  return masks;
}

#if defined(__SSE2__)
/// The same masks from four 16-byte loads. SSE2 is the x86-64 baseline,
/// so no runtime dispatch is needed.
[[nodiscard]] inline WindowMasks window_masks_sse2(const char* window) noexcept {
  const __m128i space = _mm_set1_epi8(' ');
  const __m128i semicolon = _mm_set1_epi8(';');
  const __m128i newline = _mm_set1_epi8('\n');
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
    masks.newline |= bits(_mm_cmpeq_epi8(bytes, newline)) << (16 * k);
  }
  return masks;
}
#endif

[[nodiscard]] inline WindowMasks window_masks(const char* window) noexcept {
#if defined(__SSE2__)
  return window_masks_sse2(window);
#else
  return window_masks_table(window);
#endif
}

/// Split bytes [data, data + size) into lines at each '\n' (a last line
/// without one ends at `size`), and each line into its tokens: the runs of
/// non-whitespace bytes before the line's first ';' (a comment), at most
/// kMaxTokens of them, written into `tokens` at their own addresses. Calls
/// on_line(line without its '\n', token count) for each line in order; the
/// tokens are valid until the next call. `readable` >= size bytes from
/// `data` may be read: a window is loaded in place when all 64 of its bytes
/// are readable, and copied into a padded buffer otherwise.
template <typename OnLine>
void walk_lines(const char* data, std::size_t size, std::size_t readable, Tokens& tokens,
                OnLine&& on_line) {
  const auto lowest = [](std::uint64_t mask) { return mask & (0 - mask); };
  // Every bit up to and including the lowest set bit of `bit`.
  const auto through = [](std::uint64_t bit) { return (bit - 1) | bit; };
  std::size_t line = 0;      // the current line's first byte
  std::size_t count = 0;     // its tokens so far
  std::size_t start = 0;     // the open token's first byte
  bool open = false;         // a token has started and not yet ended
  bool comment = false;      // the rest of the current line is a comment
  std::uint64_t before = 1;  // the separator bit of the byte before the window
  for (std::size_t base = 0; base < size; base += 64) {
    const char* window = data + base;
    char padded[64];
    if (readable - base < 64) {
      std::memset(padded, ' ', sizeof padded);
      std::memcpy(padded, window, readable - base);
      window = padded;
    }
    const WindowMasks masks = window_masks(window);
    // Separators: whitespace and ';'. A bit where sep differs from the byte
    // before it starts a token (sep clear) or ends one (sep set), so starts
    // and ends alternate.
    const std::uint64_t sep = masks.space | masks.semicolon;
    const std::uint64_t edges = sep ^ ((sep << 1) | before);
    before = sep >> 63;
    // The window's bytes not yet walked, one line segment at a time: up to
    // and including the next '\n', or to the window's end.
    std::uint64_t rest =
        size - base < 64 ? (std::uint64_t{1} << (size - base)) - 1 : ~std::uint64_t{0};
    std::uint64_t newlines = masks.newline & rest;
    while (true) {
      const std::uint64_t newline = lowest(newlines);
      const std::uint64_t segment = newline != 0 ? rest & through(newline) : rest;
      if (!comment) {
        std::uint64_t segment_edges = edges & segment;
        if (const std::uint64_t semicolon = lowest(masks.semicolon & segment)) {
          segment_edges &= through(semicolon);  // the ';' still ends a token
          comment = true;
        }
        std::uint64_t starts = segment_edges & ~sep;
        std::uint64_t ends = segment_edges & sep;
        if (open && ends != 0) {
          const std::size_t at = base + static_cast<std::size_t>(std::countr_zero(ends));
          if (count < kMaxTokens) tokens[count++] = std::string_view{data + start, at - start};
          ends &= ends - 1;
          open = false;
        }
        while (starts != 0) {
          const std::size_t first = base + static_cast<std::size_t>(std::countr_zero(starts));
          starts &= starts - 1;
          if (ends == 0) {  // runs on past this segment
            start = first;
            open = true;
            break;
          }
          const std::size_t at = base + static_cast<std::size_t>(std::countr_zero(ends));
          ends &= ends - 1;
          if (count < kMaxTokens) tokens[count++] = std::string_view{data + first, at - first};
        }
      }
      if (newline == 0) break;
      const std::size_t at = base + static_cast<std::size_t>(std::countr_zero(newline));
      on_line(std::string_view{data + line, at - line}, count);
      line = at + 1;
      count = 0;
      comment = false;
      rest &= ~through(newline);
      newlines &= newlines - 1;
    }
  }
  if (line < size) {  // a last line without '\n': a token still open ends with it
    if (open && count < kMaxTokens) tokens[count++] = std::string_view{data + start, size - start};
    on_line(std::string_view{data + line, size - line}, count);
  }
}

}  // namespace sham::dns::detail
