#include "homoglyph/homoglyph_db.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "unicode/idna_properties.hpp"
#include "util/strings.hpp"

namespace sham::homoglyph {

namespace {

/// One (pair key, provenance) per listed pair, in any order, repeats
/// allowed.
using KeyedSources = std::vector<std::pair<std::uint64_t, std::uint8_t>>;

/// Sort `entries` by key and OR together the provenance of repeated keys:
/// the sorted, unique pair arrays the builder takes.
HomoglyphDb::Flat sorted_pairs(KeyedSources entries) {
  std::sort(entries.begin(), entries.end());
  HomoglyphDb::Flat flat;
  flat.pair_keys.reserve(entries.size());
  flat.pair_sources.reserve(entries.size());
  for (const auto& [k, s] : entries) {
    if (!flat.pair_keys.empty() && flat.pair_keys.back() == k) {
      flat.pair_sources.back() |= s;
    } else {
      flat.pair_keys.push_back(k);
      flat.pair_sources.push_back(s);
    }
  }
  return flat;
}

}  // namespace

HomoglyphDb::HomoglyphDb() { build({}); }

void HomoglyphDb::build(Flat flat) {
  // Adjacency CSR: both directions of every pair as (cp << 32) | partner,
  // sorted, so each character's list comes out ascending.
  std::vector<std::uint64_t> directed;
  directed.reserve(2 * flat.pair_keys.size());
  for (const auto k : flat.pair_keys) {
    directed.push_back(k);
    directed.push_back((k << 32) | (k >> 32));
  }
  std::sort(directed.begin(), directed.end());
  flat.adj_cps.clear();
  flat.adj_offsets.clear();
  flat.adj_data.clear();
  flat.adj_data.reserve(directed.size());
  for (const auto d : directed) {
    const auto cp = static_cast<unicode::CodePoint>(d >> 32);
    if (flat.adj_cps.empty() || flat.adj_cps.back() != cp) {
      flat.adj_cps.push_back(cp);
      flat.adj_offsets.push_back(static_cast<std::uint32_t>(flat.adj_data.size()));
    }
    flat.adj_data.push_back(static_cast<unicode::CodePoint>(d & 0xFFFFFFFF));
  }
  flat.adj_offsets.push_back(static_cast<std::uint32_t>(flat.adj_data.size()));

  // Canonical map: union-find over positions in adj_cps. Positions ascend
  // with code points, so joining toward the smaller root keeps the
  // smallest member as every component's representative.
  const std::size_t n = flat.adj_cps.size();
  std::vector<std::uint32_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<std::uint32_t>(i);
  const auto find = [&](std::uint32_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];  // path halving
    return i;
  };
  const auto position = [&](unicode::CodePoint cp) {
    return static_cast<std::uint32_t>(
        std::lower_bound(flat.adj_cps.begin(), flat.adj_cps.end(), cp) -
        flat.adj_cps.begin());
  };
  for (const auto k : flat.pair_keys) {
    const auto ra = find(position(static_cast<unicode::CodePoint>(k >> 32)));
    const auto rb = find(position(static_cast<unicode::CodePoint>(k & 0xFFFFFFFF)));
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  flat.canon_keys = flat.adj_cps;
  flat.canon_reps.resize(n);
  std::size_t classes = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto root = find(i);
    flat.canon_reps[i] = flat.adj_cps[root];
    if (root == i) ++classes;
  }
  canonical_classes_ = classes;
  adopted_ = false;

  auto storage = std::make_shared<const Flat>(std::move(flat));
  const FlatView arrays{.pair_keys = storage->pair_keys,
                        .pair_sources = storage->pair_sources,
                        .adj_cps = storage->adj_cps,
                        .adj_offsets = storage->adj_offsets,
                        .adj_data = storage->adj_data,
                        .canon_keys = storage->canon_keys,
                        .canon_reps = storage->canon_reps};
  attach(arrays, std::move(storage));
}

void HomoglyphDb::attach(const FlatView& arrays, std::shared_ptr<const void> keepalive) {
  keepalive_ = std::move(keepalive);
  pair_keys_ = arrays.pair_keys;
  pair_sources_ = arrays.pair_sources;
  adj_cps_ = arrays.adj_cps;
  adj_offsets_ = arrays.adj_offsets;
  adj_data_ = arrays.adj_data;
  canon_keys_ = arrays.canon_keys;
  canon_reps_ = arrays.canon_reps;
  for (unicode::CodePoint cp = 0; cp < kDenseCanonical; ++cp) {
    canonical_latin1_[cp] = cp;
  }
  for (std::size_t i = 0; i < canon_keys_.size(); ++i) {
    const auto cp = canon_keys_[i];
    if (cp >= kDenseCanonical) break;  // keys ascending
    canonical_latin1_[cp] = canon_reps_[i];
  }
}

HomoglyphDb::Flat HomoglyphDb::to_flat() const {
  Flat flat;
  flat.generation = generation_;
  flat.canonical_classes = static_cast<std::uint32_t>(canonical_classes_);
  flat.config_flags = (config_.use_uc ? DbConfigFlags::kUseUc : 0) |
                      (config_.use_simchar ? DbConfigFlags::kUseSimChar : 0) |
                      (config_.idna_only ? DbConfigFlags::kIdnaOnly : 0);
  flat.pair_keys.assign(pair_keys_.begin(), pair_keys_.end());
  flat.pair_sources.assign(pair_sources_.begin(), pair_sources_.end());
  flat.adj_cps.assign(adj_cps_.begin(), adj_cps_.end());
  flat.adj_offsets.assign(adj_offsets_.begin(), adj_offsets_.end());
  flat.adj_data.assign(adj_data_.begin(), adj_data_.end());
  flat.canon_keys.assign(canon_keys_.begin(), canon_keys_.end());
  flat.canon_reps.assign(canon_reps_.begin(), canon_reps_.end());
  return flat;
}

HomoglyphDb HomoglyphDb::adopt_view(const FlatView& flat,
                                    std::shared_ptr<const void> backing) {
  if (flat.pair_sources.size() != flat.pair_keys.size() ||
      flat.adj_offsets.size() != flat.adj_cps.size() + 1 ||
      (!flat.adj_offsets.empty() && flat.adj_offsets.back() != flat.adj_data.size()) ||
      flat.canon_reps.size() != flat.canon_keys.size()) {
    throw std::runtime_error{"HomoglyphDb: flat view shape mismatch"};
  }
  HomoglyphDb db;
  db.attach(flat, std::move(backing));
  db.adopted_ = true;
  db.generation_ = flat.generation;
  db.canonical_classes_ = flat.canonical_classes;
  db.config_.use_uc = (flat.config_flags & DbConfigFlags::kUseUc) != 0;
  db.config_.use_simchar = (flat.config_flags & DbConfigFlags::kUseSimChar) != 0;
  db.config_.idna_only = (flat.config_flags & DbConfigFlags::kIdnaOnly) != 0;
  // The change log starts at adoption: canonical_changes_since(generation())
  // answers with "nothing changed"; anything older forces the caller's full
  // rebuild.
  db.change_log_base_ = flat.generation;
  return db;
}

HomoglyphDb::UpdateResult HomoglyphDb::apply_update(
    std::span<const simchar::HomoglyphPair> pairs, Source source) {
  const auto permitted = [&](unicode::CodePoint cp) {
    return !config_.idna_only || unicode::is_idna_permitted(cp);
  };
  std::vector<std::uint64_t> fresh;
  fresh.reserve(pairs.size());
  for (const auto& p : pairs) {
    if (p.a == p.b) continue;
    if (!permitted(p.a) || !permitted(p.b)) continue;
    fresh.push_back(key(p.a, p.b));
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  // Merge the batch into the sorted pair arrays.
  UpdateResult result;
  const auto bits = static_cast<std::uint8_t>(source);
  Flat next;
  next.pair_keys.reserve(pair_keys_.size() + fresh.size());
  next.pair_sources.reserve(pair_keys_.size() + fresh.size());
  std::size_t i = 0;
  for (const auto k : fresh) {
    for (; i < pair_keys_.size() && pair_keys_[i] < k; ++i) {
      next.pair_keys.push_back(pair_keys_[i]);
      next.pair_sources.push_back(pair_sources_[i]);
    }
    std::uint8_t s = bits;
    if (i < pair_keys_.size() && pair_keys_[i] == k) {
      s |= pair_sources_[i];
      if (s != pair_sources_[i]) ++result.sources_widened;
      ++i;
    } else {
      ++result.pairs_added;
    }
    next.pair_keys.push_back(k);
    next.pair_sources.push_back(s);
  }
  if (result.pairs_added == 0 && result.sources_widened == 0) return result;
  next.pair_keys.insert(next.pair_keys.end(), pair_keys_.begin() + i, pair_keys_.end());
  next.pair_sources.insert(next.pair_sources.end(), pair_sources_.begin() + i,
                           pair_sources_.end());

  // Rebuild, then diff the canonical maps. Pairs are only ever added, so
  // the new keys cover the old ones, and a representative only ever moves
  // to a smaller code point: the diff is every code point that moved at
  // any merge of this call.
  const auto previous = keepalive_;  // keeps the old arrays alive for the diff
  const auto old_keys = canon_keys_;
  const auto old_reps = canon_reps_;
  build(std::move(next));
  std::size_t j = 0;
  for (std::size_t x = 0; x < canon_keys_.size(); ++x) {
    const auto cp = canon_keys_[x];
    while (j < old_keys.size() && old_keys[j] < cp) ++j;
    const auto old_rep = j < old_keys.size() && old_keys[j] == cp ? old_reps[j] : cp;
    if (canon_reps_[x] != old_rep) result.canonical_changed.push_back(cp);
  }
  ++generation_;
  canonical_change_log_.push_back(result.canonical_changed);
  return result;
}

HomoglyphDb::UpdateResult HomoglyphDb::update_with_new_characters(
    const simchar::SimCharDb& updated) {
  return apply_update(updated.pairs(), Source::kSimChar);
}

std::optional<std::vector<unicode::CodePoint>> HomoglyphDb::canonical_changes_since(
    std::uint64_t since) const {
  if (since == generation_) return std::vector<unicode::CodePoint>{};
  if (since < change_log_base_ || since > generation_) return std::nullopt;
  std::vector<unicode::CodePoint> out;
  for (std::uint64_t g = since; g < generation_; ++g) {
    const auto& step = canonical_change_log_[g - change_log_base_];
    out.insert(out.end(), step.begin(), step.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t HomoglyphDb::key(unicode::CodePoint a, unicode::CodePoint b) noexcept {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

HomoglyphDb::HomoglyphDb(const simchar::SimCharDb& simchar_db,
                         const unicode::ConfusablesDb& uc_db, const DbConfig& config)
    : config_(config) {
  const auto permitted = [&](unicode::CodePoint cp) {
    return !config.idna_only || unicode::is_idna_permitted(cp);
  };
  KeyedSources entries;
  const auto add = [&](unicode::CodePoint a, unicode::CodePoint b, Source source) {
    if (a != b && permitted(a) && permitted(b)) {
      entries.emplace_back(key(a, b), static_cast<std::uint8_t>(source));
    }
  };
  if (config.use_uc) {
    for (const auto& [source, proto] : uc_db.single_char_pairs()) {
      add(source, proto, Source::kUc);
    }
  }
  if (config.use_simchar) {
    // SimChar is built from the PVALID repertoire already; the check is
    // kept for externally loaded databases.
    for (const auto& p : simchar_db.pairs()) add(p.a, p.b, Source::kSimChar);
  }
  build(sorted_pairs(std::move(entries)));
}

bool HomoglyphDb::are_homoglyphs(unicode::CodePoint a, unicode::CodePoint b) const {
  return a != b && source_of(a, b).has_value();
}

std::optional<Source> HomoglyphDb::source_of(unicode::CodePoint a,
                                             unicode::CodePoint b) const {
  if (a == b) return std::nullopt;
  const auto k = key(a, b);
  const auto it = std::lower_bound(pair_keys_.begin(), pair_keys_.end(), k);
  if (it == pair_keys_.end() || *it != k) return std::nullopt;
  return static_cast<Source>(pair_sources_[static_cast<std::size_t>(it - pair_keys_.begin())]);
}

std::vector<unicode::CodePoint> HomoglyphDb::homoglyphs_of(unicode::CodePoint cp) const {
  const auto it = std::lower_bound(adj_cps_.begin(), adj_cps_.end(), cp);
  if (it == adj_cps_.end() || *it != cp) return {};
  const auto i = static_cast<std::size_t>(it - adj_cps_.begin());
  return {adj_data_.begin() + adj_offsets_[i], adj_data_.begin() + adj_offsets_[i + 1]};
}

std::size_t HomoglyphDb::pair_count(Source source) const {
  // A pair counts toward `source` when its provenance includes every bit of
  // `source`: kUc/kSimChar mean "listed in that database (possibly both)",
  // kBoth means "listed in both".
  const auto want = static_cast<std::uint8_t>(source);
  return static_cast<std::size_t>(std::count_if(
      pair_sources_.begin(), pair_sources_.end(),
      [&](std::uint8_t s) { return (s & want) == want; }));
}

std::string HomoglyphDb::serialize() const {
  // Deterministic order: the pair arrays are key-sorted.
  std::string out;
  out.reserve(pair_keys_.size() * 24);
  for (std::size_t i = 0; i < pair_keys_.size(); ++i) {
    const auto k = pair_keys_[i];
    out += util::format_codepoint(static_cast<unicode::CodePoint>(k >> 32));
    out += ' ';
    out += util::format_codepoint(static_cast<unicode::CodePoint>(k & 0xFFFFFFFF));
    out += ' ';
    switch (static_cast<Source>(pair_sources_[i])) {
      case Source::kUc: out += "UC"; break;
      case Source::kSimChar: out += "SimChar"; break;
      case Source::kBoth: out += "both"; break;
    }
    out += '\n';
  }
  return out;
}

HomoglyphDb HomoglyphDb::parse(std::string_view text) {
  KeyedSources entries;
  std::size_t line_no = 0;
  for (const auto line : util::split(text, '\n')) {
    ++line_no;
    const auto body = util::trim(line);
    if (body.empty() || body.front() == '#') continue;
    const auto error = [&](const std::string& why) {
      return std::invalid_argument{"HomoglyphDb::parse: line " + std::to_string(line_no) +
                                   ": " + why};
    };
    const auto fields = util::split_ws(body);
    if (fields.size() != 3) throw error("expected 3 fields");
    unicode::CodePoint a = 0;
    unicode::CodePoint b = 0;
    try {
      a = util::parse_hex_codepoint(fields[0]);
      b = util::parse_hex_codepoint(fields[1]);
    } catch (const std::invalid_argument& e) {
      throw error(e.what());
    }
    if (a > unicode::kMaxCodePoint || b > unicode::kMaxCodePoint) {
      throw error("code point above U+10FFFF");
    }
    if (a == b) throw error("reflexive pair");
    Source source;
    if (fields[2] == "UC") {
      source = Source::kUc;
    } else if (fields[2] == "SimChar") {
      source = Source::kSimChar;
    } else if (fields[2] == "both") {
      source = Source::kBoth;
    } else {
      throw error("bad source tag");
    }
    entries.emplace_back(key(a, b), static_cast<std::uint8_t>(source));
  }
  HomoglyphDb db;
  db.build(sorted_pairs(std::move(entries)));
  return db;
}

std::optional<unicode::U32String> HomoglyphDb::revert_to_ascii(
    const unicode::U32String& text) const {
  unicode::U32String out;
  out.reserve(text.size());
  for (const auto cp : text) {
    if (unicode::is_ascii(cp)) {
      out.push_back(cp);
      continue;
    }
    unicode::CodePoint best = 0;
    for (const auto h : homoglyphs_of(cp)) {
      if (unicode::is_ldh(h)) {
        best = h;
        break;  // adjacency is sorted: first LDH hit is the smallest
      }
    }
    if (best == 0) return std::nullopt;
    out.push_back(best);
  }
  return out;
}

}  // namespace sham::homoglyph
