// SimChar database builder CLI — the "SimChar is portable" claim of
// Section 7.2: build the database from any glyph source, serialize it to a
// small text file, and embed/reload it in other systems (browser
// extensions, mail filters, registry pipelines).
//
//   $ ./examples/build_simchar_db out.simchar [font.ttf|font.hex]
//
// Without a font argument, the system font is used (or the synthetic
// paper-scale font if FreeType is unavailable). A ".hex" argument loads a
// GNU Unifont hex file — the font the paper itself used.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "font/freetype_font.hpp"
#include "font/hex_font.hpp"
#include "font/paper_font.hpp"
#include "simchar/simchar.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace sham;
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <output.simchar> [font.ttf|font.hex]\n", argv[0]);
    return 1;
  }
  const std::string out_path = argv[1];

  font::FontSourcePtr font;
  if (argc > 2) {
    const std::string font_path = argv[2];
    try {
      if (util::ends_with(font_path, ".hex")) {
        font = std::make_shared<font::HexFont>(font::HexFont::load(font_path));
      } else {
        font = std::make_shared<font::FreeTypeFont>(font_path);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot load font %s: %s\n", font_path.c_str(), e.what());
      return 1;
    }
  } else {
    font = font::FreeTypeFont::open_system_font();
    if (font == nullptr) font = font::make_paper_font({}).font;
  }
  std::printf("font: %s (%zu glyphs)\n", font->name().c_str(), font->coverage().size());

  simchar::BuildStats stats;
  const auto db = simchar::SimCharDb::build(*font, {}, &stats);
  std::printf("built SimChar (%s): %zu glyphs rendered, %llu comparisons, "
              "%zu pairs over %zu characters\n",
              std::string{simchar::pair_strategy_name(stats.mining.strategy)}.c_str(),
              stats.glyphs_rendered,
              static_cast<unsigned long long>(stats.pairs_compared), db.pair_count(),
              db.character_count());
  std::printf("timings: render %.2fs, pairwise %.2fs, sparse %.2fs\n",
              stats.render_seconds, stats.compare_seconds, stats.sparse_seconds);

  const auto text = db.serialize();
  std::ofstream out{out_path, std::ios::binary};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "# SimChar homoglyph pairs, built from " << font->name() << "\n" << text;
  out.close();
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), text.size());

  // Round-trip check: the file reloads into an identical database.
  std::ifstream in{out_path, std::ios::binary};
  std::string content{std::istreambuf_iterator<char>{in}, {}};
  const auto reloaded = simchar::SimCharDb::parse(content);
  std::printf("reload check: %zu pairs (%s)\n", reloaded.pair_count(),
              std::ranges::equal(reloaded.pairs(), db.pairs()) ? "identical" : "MISMATCH");
  return std::ranges::equal(reloaded.pairs(), db.pairs()) ? 0 : 2;
}
