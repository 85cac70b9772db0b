// GNU Unifont .hex format: one glyph per line, "XXXX:<hex digits>", where
// the digit count encodes the cell (32 digits = 8x16, 64 digits = 16x16).
// This is the font format the paper used for SimChar (GNU Unifont Glyphs).
#pragma once

#include <array>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "font/font_source.hpp"

namespace sham::font {

class HexFont final : public FontSource {
 public:
  /// Parse .hex text. Malformed lines, and code points above U+10FFFF,
  /// throw std::invalid_argument with the line number; blank lines and '#'
  /// comments are skipped.
  static HexFont parse(std::string_view text, std::string name = "unifont.hex");

  /// Load a .hex file from disk; throws std::runtime_error if unreadable.
  static HexFont load(const std::string& path);

  HexFont() = default;

  /// Add/replace one glyph from its raw cell rows. `wide` selects the
  /// 16x16 cell (otherwise 8x16); rows are the raw row bit patterns,
  /// MSB = leftmost pixel. Throws std::invalid_argument on a code point
  /// above U+10FFFF or a malformed row set.
  void add_glyph(unicode::CodePoint cp, bool wide,
                 const std::vector<std::uint32_t>& rows);

  /// Serialize back to .hex text (round-trips with parse()).
  [[nodiscard]] std::string serialize() const;

  // FontSource:
  [[nodiscard]] std::optional<GlyphBitmap> glyph(unicode::CodePoint cp) const override;
  [[nodiscard]] std::vector<unicode::CodePoint> coverage() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] std::size_t size() const noexcept { return glyphs_.size(); }

 private:
  struct Cell {
    bool wide = false;
    std::array<std::uint16_t, 16> rows{};  // 8-wide uses the high byte
  };

  std::map<unicode::CodePoint, Cell> glyphs_;
  std::string name_ = "hexfont";
};

}  // namespace sham::font
