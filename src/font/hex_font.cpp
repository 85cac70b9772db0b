#include "font/hex_font.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace sham::font {

namespace {

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

HexFont HexFont::parse(std::string_view text, std::string name) {
  HexFont font;
  font.name_ = std::move(name);
  std::size_t line_no = 0;
  for (const auto raw_line : util::split(text, '\n')) {
    ++line_no;
    const auto line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;

    const auto error = [&](const std::string& why) {
      return std::invalid_argument{".hex line " + std::to_string(line_no) + ": " + why};
    };
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) throw error("missing ':'");
    unicode::CodePoint cp = 0;
    try {
      cp = util::parse_hex_codepoint(line.substr(0, colon));
    } catch (const std::invalid_argument& e) {
      throw error(e.what());
    }
    if (cp > unicode::kMaxCodePoint) throw error("code point above U+10FFFF");
    const auto bits = line.substr(colon + 1);

    Cell cell;
    if (bits.size() == 32) {
      cell.wide = false;
    } else if (bits.size() == 64) {
      cell.wide = true;
    } else {
      throw error("expected 32 or 64 hex digits, got " + std::to_string(bits.size()));
    }
    const std::size_t digits_per_row = cell.wide ? 4 : 2;
    for (std::size_t row = 0; row < 16; ++row) {
      std::uint16_t value = 0;
      for (std::size_t d = 0; d < digits_per_row; ++d) {
        const int v = hex_value(bits[row * digits_per_row + d]);
        if (v < 0) throw error("bad hex digit");
        value = static_cast<std::uint16_t>((value << 4) | v);
      }
      if (!cell.wide) value = static_cast<std::uint16_t>(value << 8);  // left-align
      cell.rows[row] = value;
    }
    font.glyphs_[cp] = cell;
  }
  return font;
}

HexFont HexFont::load(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"HexFont::load: cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), path);
}

void HexFont::add_glyph(unicode::CodePoint cp, bool wide,
                        const std::vector<std::uint32_t>& rows) {
  if (cp > unicode::kMaxCodePoint) {
    throw std::invalid_argument{"HexFont::add_glyph: code point above U+10FFFF"};
  }
  if (rows.size() != 16) {
    throw std::invalid_argument{"HexFont::add_glyph: expected 16 rows"};
  }
  Cell cell;
  cell.wide = wide;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t max = wide ? 0xFFFFu : 0xFFu;
    if (rows[i] > max) {
      throw std::invalid_argument{"HexFont::add_glyph: row value out of range"};
    }
    cell.rows[i] = static_cast<std::uint16_t>(wide ? rows[i] : rows[i] << 8);
  }
  glyphs_[cp] = cell;
}

std::string HexFont::serialize() const {
  static constexpr char digits[] = "0123456789ABCDEF";
  std::string out;
  for (const auto& [cp, cell] : glyphs_) {
    std::string hex;
    std::uint32_t v = cp;
    while (v != 0) {
      hex.insert(hex.begin(), digits[v & 0xF]);
      v >>= 4;
    }
    while (hex.size() < 4) hex.insert(hex.begin(), '0');
    out += hex;
    out += ':';
    for (int row = 0; row < 16; ++row) {
      const std::uint16_t bits = cell.wide ? cell.rows[row]
                                           : static_cast<std::uint16_t>(cell.rows[row] >> 8);
      const int digit_count = cell.wide ? 4 : 2;
      for (int d = digit_count - 1; d >= 0; --d) {
        out += digits[(bits >> (4 * d)) & 0xF];
      }
    }
    out += '\n';
  }
  return out;
}

std::optional<GlyphBitmap> HexFont::glyph(unicode::CodePoint cp) const {
  const auto it = glyphs_.find(cp);
  if (it == glyphs_.end()) return std::nullopt;
  const Cell& cell = it->second;
  const int width = cell.wide ? 16 : 8;
  return GlyphBitmap::upscale(width, 16, [&](int x, int y) {
    const std::uint16_t row = cell.rows[y];
    const int shift = cell.wide ? 15 - x : 15 - x;  // 8-wide rows are left-aligned
    return ((row >> shift) & 1) != 0;
  });
}

std::vector<unicode::CodePoint> HexFont::coverage() const {
  std::vector<unicode::CodePoint> out;
  out.reserve(glyphs_.size());
  for (const auto& [cp, cell] : glyphs_) out.push_back(cp);
  return out;
}

}  // namespace sham::font
