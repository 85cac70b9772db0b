// Structure-of-arrays glyph bitmap storage for the SIMD kernel layer.
//
// A GlyphPanel holds N 1024-bit bitmaps word-major: word w of glyph g
// lives at word_row(w)[g]. A batched ∆ against one query bitmap therefore
// streams each of the 16 word rows linearly, and a 4-lane SIMD pass loads
// four neighbouring glyphs with a single 256-bit load. Rows are 64-byte
// aligned and padded to a multiple of 8 columns; padding columns are
// zero, so a vector tail may read (never write) past size() safely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

namespace sham::kernels {

/// Words per glyph bitmap: 32x32 pixels = 1024 bits = 16 u64 words.
/// (font::GlyphBitmap::kWords static_asserts against this.)
inline constexpr std::size_t kGlyphWords = 16;
/// Row alignment: one cache line, and wide enough for 512-bit loads.
inline constexpr std::size_t kPanelAlign = 64;
/// Columns are padded to a multiple of this (8 u64 = one 64-byte line).
inline constexpr std::size_t kPanelPad = 8;

class GlyphPanel {
 public:
  GlyphPanel() = default;
  explicit GlyphPanel(std::size_t count) { reset(count); }

  GlyphPanel(const GlyphPanel& other) { *this = other; }
  GlyphPanel& operator=(const GlyphPanel& other) {
    if (this == &other) return *this;
    reset(other.count_);
    if (stride_ != 0) std::memcpy(words_.get(), other.words_.get(), bytes());
    return *this;
  }
  GlyphPanel(GlyphPanel&& other) noexcept
      : count_{std::exchange(other.count_, 0)},
        stride_{std::exchange(other.stride_, 0)},
        words_{std::move(other.words_)} {}
  GlyphPanel& operator=(GlyphPanel&& other) noexcept {
    count_ = std::exchange(other.count_, 0);
    stride_ = std::exchange(other.stride_, 0);
    words_ = std::move(other.words_);
    return *this;
  }

  /// Reallocate for `count` glyphs, all words (including padding) zeroed.
  void reset(std::size_t count) {
    count_ = count;
    stride_ = count == 0 ? 0 : (count + kPanelPad - 1) / kPanelPad * kPanelPad;
    words_.reset();
    if (stride_ == 0) return;
    auto* p = static_cast<std::uint64_t*>(
        ::operator new[](bytes(), std::align_val_t{kPanelAlign}));
    std::memset(p, 0, bytes());
    words_.reset(p);
  }

  /// Scatter one glyph's 16 words into column `i` of every word row.
  void set_glyph(std::size_t i, const std::uint64_t* glyph_words) noexcept {
    for (std::size_t w = 0; w < kGlyphWords; ++w) {
      words_[w * stride_ + i] = glyph_words[w];
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] const std::uint64_t* word_row(std::size_t w) const noexcept {
    return words_.get() + w * stride_;
  }

 private:
  struct AlignedDelete {
    void operator()(std::uint64_t* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kPanelAlign});
    }
  };
  [[nodiscard]] std::size_t bytes() const noexcept {
    return kGlyphWords * stride_ * sizeof(std::uint64_t);
  }

  std::size_t count_ = 0;
  std::size_t stride_ = 0;
  std::unique_ptr<std::uint64_t[], AlignedDelete> words_;
};

static_assert(kPanelPad * sizeof(std::uint64_t) == kPanelAlign,
              "row stride pad must preserve 64-byte row alignment");

}  // namespace sham::kernels
