#include "simchar/simchar.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "unicode/idna_properties.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace sham::simchar {

namespace {

/// Step I: render every IDNA-permitted (when requested) code point the
/// font covers. Shared verbatim by the full build and the incremental
/// update — the font is the repertoire authority for both. The PVALID
/// filter runs inside the parallel render loop, one state per coverage
/// slot, and one serial pass counts the repertoire and compacts.
std::vector<MinerGlyph> render_repertoire(const font::FontSource& font,
                                          const BuildOptions& options,
                                          util::ThreadPool& pool,
                                          BuildStats& stats) {
  enum State : char { kFiltered, kUncovered, kRendered };
  const auto coverage = font.coverage();
  std::vector<MinerGlyph> glyphs(coverage.size());
  std::vector<State> state(coverage.size());
  pool.parallel_for(0, coverage.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto cp = coverage[i];
      if (options.idna_only && !unicode::is_idna_permitted(cp)) {
        state[i] = kFiltered;
        continue;
      }
      const auto g = font.glyph(cp);
      if (!g) {
        state[i] = kUncovered;
        continue;
      }
      glyphs[i] = MinerGlyph{cp, *g, g->popcount()};
      state[i] = kRendered;
    }
  });
  // Compact the rendered glyphs to the front, in coverage order.
  std::size_t repertoire = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < glyphs.size(); ++i) {
    if (state[i] == kFiltered) continue;
    ++repertoire;
    if (state[i] == kUncovered) continue;
    if (kept != i) glyphs[kept] = glyphs[i];
    ++kept;
  }
  glyphs.resize(kept);
  stats.repertoire_size = repertoire;
  stats.glyphs_rendered = kept;
  return glyphs;
}

}  // namespace

SimCharDb SimCharDb::build(const font::FontSource& font, const BuildOptions& options,
                           BuildStats* stats) {
  if (options.threshold < 0) throw std::invalid_argument{"SimCharDb: threshold < 0"};
  BuildStats local_stats;
  util::ThreadPool pool{options.threads};

  // --- Step I: render the repertoire.
  util::Stopwatch watch;
  const auto glyphs = render_repertoire(font, options, pool, local_stats);
  local_stats.render_seconds = watch.seconds();

  // --- Step II: pairwise ∆ ≤ θ, via the shared pair miner.
  watch.reset();
  const PairMiner miner{glyphs, options.threshold, options.pair_strategy, pool};
  auto pairs = miner.mine_all(&local_stats.mining);
  local_stats.pairs_compared = local_stats.mining.delta_evaluations;
  local_stats.pairs_found = pairs.size();
  local_stats.compare_seconds = watch.seconds();

  // --- Step III: eliminate sparse characters from the extracted pairs.
  watch.reset();
  std::unordered_set<unicode::CodePoint> sparse;
  for (const auto& g : glyphs) {
    if (g.popcount < options.min_black_pixels) sparse.insert(g.cp);
  }
  std::size_t eliminated_chars = 0;
  {
    std::unordered_set<unicode::CodePoint> touched;
    for (const auto& p : pairs) {
      if (sparse.contains(p.a)) touched.insert(p.a);
      if (sparse.contains(p.b)) touched.insert(p.b);
    }
    eliminated_chars = touched.size();
  }
  std::erase_if(pairs, [&](const HomoglyphPair& p) {
    return sparse.contains(p.a) || sparse.contains(p.b);
  });
  local_stats.sparse_eliminated = eliminated_chars;
  local_stats.pairs_after_sparse = pairs.size();
  local_stats.sparse_seconds = watch.seconds();

  if (stats != nullptr) *stats = local_stats;
  return SimCharDb{std::move(pairs)};
}

SimCharDb::SimCharDb(std::vector<HomoglyphPair> pairs) {
  for (auto& p : pairs) {
    if (p.a == p.b) throw std::invalid_argument{"SimCharDb: reflexive pair"};
    if (p.a > p.b) std::swap(p.a, p.b);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const HomoglyphPair& x, const HomoglyphPair& y) {
                            return x.a == y.a && x.b == y.b;
                          }),
              pairs.end());
  index(std::move(pairs));
}

void SimCharDb::index(std::vector<HomoglyphPair> pairs) {
  struct Arrays {
    std::vector<HomoglyphPair> pairs;
    std::vector<std::uint32_t> chars;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> postings;
  };
  auto arrays = std::make_shared<Arrays>();
  arrays->pairs = std::move(pairs);

  // CSR posting index: one (cp, partner, pair) triple per pair endpoint,
  // sorted by (cp, partner) — each character's postings therefore come out
  // partner-sorted, so delta_of can binary-search them (hot in the detect
  // verify path) and homoglyphs_of is ascending without a per-query sort.
  struct Entry {
    unicode::CodePoint cp;
    unicode::CodePoint partner;
    std::uint32_t pair;
  };
  std::vector<Entry> entries;
  entries.reserve(2 * arrays->pairs.size());
  for (std::size_t i = 0; i < arrays->pairs.size(); ++i) {
    const auto& p = arrays->pairs[i];
    entries.push_back({p.a, p.b, static_cast<std::uint32_t>(i)});
    entries.push_back({p.b, p.a, static_cast<std::uint32_t>(i)});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    return x.cp != y.cp ? x.cp < y.cp : x.partner < y.partner;
  });

  arrays->postings.reserve(entries.size());
  for (const auto& e : entries) {
    if (arrays->chars.empty() || arrays->chars.back() != e.cp) {
      arrays->chars.push_back(e.cp);
      arrays->offsets.push_back(static_cast<std::uint32_t>(arrays->postings.size()));
    }
    arrays->postings.push_back(e.pair);
  }
  arrays->offsets.push_back(static_cast<std::uint32_t>(arrays->postings.size()));
  pairs_ = arrays->pairs;
  chars_ = arrays->chars;
  offsets_ = arrays->offsets;
  postings_ = arrays->postings;
  keepalive_ = std::move(arrays);
}

SimCharDb::Flat SimCharDb::flat() const noexcept {
  return {pairs_, chars_, offsets_, postings_};
}

SimCharDb SimCharDb::adopt_view(const Flat& flat, std::shared_ptr<const void> backing) {
  if (flat.offsets.size() != flat.chars.size() + 1 ||
      flat.postings.size() != 2 * flat.pairs.size() ||
      (!flat.offsets.empty() && flat.offsets.back() != flat.postings.size())) {
    throw std::runtime_error{"SimCharDb: flat view shape mismatch"};
  }
  SimCharDb db;
  db.pairs_ = flat.pairs;
  db.chars_ = flat.chars;
  db.offsets_ = flat.offsets;
  db.postings_ = flat.postings;
  db.keepalive_ = std::move(backing);
  db.adopted_ = true;
  return db;
}

bool SimCharDb::are_homoglyphs(unicode::CodePoint a, unicode::CodePoint b) const {
  return delta_of(a, b).has_value();
}

std::optional<int> SimCharDb::delta_of(unicode::CodePoint a, unicode::CodePoint b) const {
  if (a == b) return std::nullopt;
  if (a > b) std::swap(a, b);
  const auto slot = std::lower_bound(chars_.begin(), chars_.end(), a);
  if (slot == chars_.end() || *slot != a) return std::nullopt;
  const auto c = static_cast<std::size_t>(slot - chars_.begin());
  // Postings are sorted by partner code point (see index()), so the pair
  // {a, b} — stored canonically as (a, b) with a < b — is a binary search
  // away. Any posting whose partner is b must have a as its smaller member.
  const auto partner = [&](std::uint32_t idx) {
    return pairs_[idx].a == a ? pairs_[idx].b : pairs_[idx].a;
  };
  const auto postings = postings_.subspan(offsets_[c], offsets_[c + 1] - offsets_[c]);
  const auto lo = std::lower_bound(postings.begin(), postings.end(), b,
                                   [&](std::uint32_t idx, unicode::CodePoint value) {
                                     return partner(idx) < value;
                                   });
  if (lo == postings.end() || partner(*lo) != b) return std::nullopt;
  return pairs_[*lo].delta;
}

std::vector<unicode::CodePoint> SimCharDb::homoglyphs_of(unicode::CodePoint cp) const {
  std::vector<unicode::CodePoint> out;
  const auto slot = std::lower_bound(chars_.begin(), chars_.end(), cp);
  if (slot == chars_.end() || *slot != cp) return out;
  const auto c = static_cast<std::size_t>(slot - chars_.begin());
  out.reserve(offsets_[c + 1] - offsets_[c]);
  // Postings are partner-sorted and pairs are unique, so the output is
  // already ascending and duplicate-free.
  for (std::uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
    const auto idx = postings_[i];
    out.push_back(pairs_[idx].a == cp ? pairs_[idx].b : pairs_[idx].a);
  }
  return out;
}

std::vector<unicode::CodePoint> SimCharDb::characters() const {
  return {chars_.begin(), chars_.end()};
}

std::string SimCharDb::serialize() const {
  std::string out;
  out.reserve(pairs_.size() * 20);
  for (const auto& p : pairs_) {
    out += util::format_codepoint(p.a);
    out += ' ';
    out += util::format_codepoint(p.b);
    out += ' ';
    out += std::to_string(p.delta);
    out += '\n';
  }
  return out;
}

SimCharDb SimCharDb::merge(const SimCharDb& a, const SimCharDb& b) {
  std::vector<HomoglyphPair> pairs{a.pairs_.begin(), a.pairs_.end()};
  pairs.insert(pairs.end(), b.pairs_.begin(), b.pairs_.end());
  // The constructor sorts by (a, b, delta) and keeps the first of each
  // (a, b) — i.e. the smaller recorded ∆ wins on conflict.
  return SimCharDb{std::move(pairs)};
}

SimCharDb update_with_new_characters(const SimCharDb& existing,
                                     const font::FontSource& font,
                                     const std::vector<unicode::CodePoint>& added,
                                     const BuildOptions& options, BuildStats* stats) {
  if (options.threshold < 0) {
    throw std::invalid_argument{"update_with_new_characters: threshold < 0"};
  }
  BuildStats local_stats;
  util::ThreadPool pool{options.threads};
  util::Stopwatch watch;

  // Render the full (old ∪ new) repertoire — the font is the repertoire
  // authority, exactly as in the full build.
  const auto glyphs = render_repertoire(font, options, pool, local_stats);
  local_stats.render_seconds = watch.seconds();

  std::unordered_set<unicode::CodePoint> added_set;
  for (const auto cp : added) added_set.insert(cp);

  // Compare only the added glyphs against the whole repertoire, through
  // the same miner as the full build: under kBlockIndex this looks up just
  // the added glyphs' keys in the block tables.
  watch.reset();
  const PairMiner miner{glyphs, options.threshold, options.pair_strategy, pool};
  auto new_pairs = miner.mine_involving(added_set, &local_stats.mining);
  local_stats.pairs_compared = local_stats.mining.delta_evaluations;
  local_stats.pairs_found = new_pairs.size();
  local_stats.compare_seconds = watch.seconds();

  // Step III over the new pairs.
  watch.reset();
  std::unordered_map<unicode::CodePoint, int> popcount_of;
  for (const auto& g : glyphs) popcount_of[g.cp] = g.popcount;
  const auto is_sparse = [&](unicode::CodePoint cp) {
    // A code point absent from the rendered glyph set has an *unknown* ink
    // count; full-build Step III only eliminates characters it measured as
    // sparse, so unknown keeps the pair (operator[] would default to 0 and
    // silently erase it).
    const auto it = popcount_of.find(cp);
    return it != popcount_of.end() && it->second < options.min_black_pixels;
  };
  std::erase_if(new_pairs, [&](const HomoglyphPair& p) {
    return is_sparse(p.a) || is_sparse(p.b);
  });
  local_stats.pairs_after_sparse = new_pairs.size();
  local_stats.sparse_seconds = watch.seconds();

  if (stats != nullptr) *stats = local_stats;
  return SimCharDb::merge(existing, SimCharDb{std::move(new_pairs)});
}

RepertoirePanel render_repertoire_panel(const font::FontSource& font,
                                        const BuildOptions& options) {
  BuildStats stats;
  util::ThreadPool pool{options.threads};
  const auto glyphs = render_repertoire(font, options, pool, stats);

  RepertoirePanel out;
  out.cps.reserve(glyphs.size());
  out.popcounts.reserve(glyphs.size());
  out.panel.reset(glyphs.size());
  for (std::size_t i = 0; i < glyphs.size(); ++i) {
    out.cps.push_back(glyphs[i].cp);
    out.popcounts.push_back(glyphs[i].popcount);
    out.panel.set_glyph(i, glyphs[i].glyph.words().data());
  }
  return out;
}

DbDiff diff(const SimCharDb& before, const SimCharDb& after) {
  const auto key = [](const HomoglyphPair& p) {
    return (static_cast<std::uint64_t>(p.a) << 32) | p.b;
  };
  std::unordered_set<std::uint64_t> before_keys;
  for (const auto& p : before.pairs()) before_keys.insert(key(p));
  std::unordered_set<std::uint64_t> after_keys;
  for (const auto& p : after.pairs()) after_keys.insert(key(p));

  DbDiff out;
  for (const auto& p : after.pairs()) {
    if (!before_keys.contains(key(p))) out.added.push_back(p);
  }
  for (const auto& p : before.pairs()) {
    if (!after_keys.contains(key(p))) out.removed.push_back(p);
  }
  return out;
}

SimCharDb SimCharDb::parse(std::string_view text) {
  // ∆ counts differing pixels of two 32x32 bitmaps.
  constexpr std::uint64_t kMaxDelta = font::GlyphBitmap::kSize * font::GlyphBitmap::kSize;
  std::vector<HomoglyphPair> pairs;
  std::size_t line_no = 0;
  for (const auto line : util::split(text, '\n')) {
    ++line_no;
    const auto body = util::trim(line);
    if (body.empty() || body.front() == '#') continue;
    const auto error = [&](const std::string& why) {
      return std::invalid_argument{"SimCharDb::parse: line " + std::to_string(line_no) +
                                   ": " + why};
    };
    const auto fields = util::split_ws(body);
    if (fields.size() != 3) throw error("expected 3 fields");
    HomoglyphPair p;
    std::uint64_t delta = 0;
    try {
      p.a = util::parse_hex_codepoint(fields[0]);
      p.b = util::parse_hex_codepoint(fields[1]);
      delta = util::parse_u64(fields[2]);
    } catch (const std::invalid_argument& e) {
      throw error(e.what());
    }
    if (p.a > unicode::kMaxCodePoint || p.b > unicode::kMaxCodePoint) {
      throw error("code point above U+10FFFF");
    }
    if (p.a == p.b) throw error("reflexive pair");
    if (delta > kMaxDelta) {
      throw error("delta " + std::to_string(delta) + " outside [0, 1024]");
    }
    p.delta = static_cast<int>(delta);
    pairs.push_back(p);
  }
  return SimCharDb{std::move(pairs)};
}

}  // namespace sham::simchar
