#include "unicode/confusables.hpp"

#include <algorithm>
#include <stdexcept>

#include "unicode/category.hpp"
#include "util/strings.hpp"

namespace sham::unicode {

namespace {

struct RawEntry {
  std::uint32_t source;
  std::uint32_t targets[3];
};

constexpr RawEntry kEmbedded[] = {
#include "unicode/data/confusables_data.inc"
};

}  // namespace

ConfusablesDb::ConfusablesDb(std::vector<ConfusableEntry> entries) {
  for (auto& e : entries) {
    if (e.skeleton.empty()) {
      throw std::invalid_argument{"ConfusablesDb: empty skeleton for " +
                                  util::format_codepoint(e.source)};
    }
    map_[e.source] = std::move(e.skeleton);
  }
}

namespace {

// Systematic confusable families of the real confusables.txt: styled
// alphabets whose members are glyph-wise letters/digits (all NFKC-unstable
// and therefore outside IDNA, like the bulk of the real UC database).
void append_sequence_family(std::vector<ConfusableEntry>& entries, CodePoint first,
                            CodePoint proto_first, int count) {
  for (int i = 0; i < count; ++i) {
    const CodePoint source = first + static_cast<CodePoint>(i);
    if (general_category(source) == GeneralCategory::kCn) continue;  // alphabet hole
    entries.push_back({source, U32String{proto_first + static_cast<CodePoint>(i)}});
  }
}

void append_systematic_families(std::vector<ConfusableEntry>& entries) {
  // Mathematical alphanumeric lowercase alphabets (bold, italic, ...).
  for (const CodePoint base :
       {0x1D41Au, 0x1D44Eu, 0x1D482u, 0x1D4B6u, 0x1D4EAu, 0x1D51Eu, 0x1D552u,
        0x1D586u, 0x1D5BAu, 0x1D5EEu, 0x1D622u, 0x1D656u, 0x1D68Au}) {
    append_sequence_family(entries, base, 'a', 26);
  }
  // Mathematical digit families.
  for (const CodePoint base : {0x1D7CEu, 0x1D7D8u, 0x1D7E2u, 0x1D7ECu, 0x1D7F6u}) {
    append_sequence_family(entries, base, '0', 10);
  }
  append_sequence_family(entries, 0xFF21, 'a', 26);   // fullwidth capitals
  append_sequence_family(entries, 0x24D0, 'a', 26);   // circled small letters
  append_sequence_family(entries, 0x24B6, 'a', 26);   // circled capitals
  append_sequence_family(entries, 0x249C, 'a', 26);   // parenthesized letters

  // Roman numerals (both cases) -> letter sequences.
  static constexpr const char* kRoman[] = {"i", "ii", "iii", "iv", "v", "vi",
                                           "vii", "viii", "ix", "x", "xi", "xii",
                                           "l", "c", "d", "m"};
  for (int upper = 0; upper < 2; ++upper) {
    const CodePoint base = upper ? 0x2160 : 0x2170;
    for (int i = 0; i < 16; ++i) {
      U32String skeleton;
      for (const char* p = kRoman[i]; *p != '\0'; ++p) {
        skeleton.push_back(static_cast<CodePoint>(*p));
      }
      entries.push_back({base + static_cast<CodePoint>(i), std::move(skeleton)});
    }
  }
}

}  // namespace

const ConfusablesDb& ConfusablesDb::embedded() {
  static const ConfusablesDb db = [] {
    std::vector<ConfusableEntry> entries;
    entries.reserve(std::size(kEmbedded) + 600);
    for (const auto& raw : kEmbedded) {
      ConfusableEntry e;
      e.source = raw.source;
      for (const auto t : raw.targets) {
        if (t != 0) e.skeleton.push_back(t);
      }
      entries.push_back(std::move(e));
    }
    append_systematic_families(entries);
    return ConfusablesDb{std::move(entries)};
  }();
  return db;
}

ConfusablesDb ConfusablesDb::parse(std::string_view text) {
  std::vector<ConfusableEntry> entries;
  std::size_t line_no = 0;
  for (const auto line : util::split(text, '\n')) {
    ++line_no;
    auto body = line;
    if (const auto hash = body.find('#'); hash != std::string_view::npos) {
      body = body.substr(0, hash);
    }
    body = util::trim(body);
    if (body.empty()) continue;

    const auto error = [&](const std::string& why) {
      return std::invalid_argument{"confusables.txt line " + std::to_string(line_no) +
                                   ": " + why};
    };
    const auto fields = util::split(body, ';');
    if (fields.size() < 2) throw error("expected ';'-separated fields");
    ConfusableEntry e;
    try {
      e.source = util::parse_hex_codepoint(util::trim(fields[0]));
      for (const auto token : util::split_ws(util::trim(fields[1]))) {
        e.skeleton.push_back(util::parse_hex_codepoint(token));
      }
    } catch (const std::invalid_argument& bad) {
      throw error(bad.what());
    }
    if (e.skeleton.empty()) throw error("empty target");
    if (e.source > kMaxCodePoint ||
        std::ranges::any_of(e.skeleton, [](CodePoint cp) { return cp > kMaxCodePoint; })) {
      throw error("code point above U+10FFFF");
    }
    entries.push_back(std::move(e));
  }
  return ConfusablesDb{std::move(entries)};
}

U32String ConfusablesDb::skeleton_of(CodePoint cp) const {
  const auto it = map_.find(cp);
  if (it == map_.end()) return U32String{cp};
  return it->second;
}

U32String ConfusablesDb::skeleton(const U32String& text) const {
  U32String current = text;
  // Apply the per-character mapping to a fixed point. Chains are short in
  // practice; the iteration cap guards against accidental cycles in
  // externally loaded data.
  for (int round = 0; round < 8; ++round) {
    U32String next;
    next.reserve(current.size());
    bool changed = false;
    for (const CodePoint cp : current) {
      const auto it = map_.find(cp);
      if (it == map_.end()) {
        next.push_back(cp);
      } else {
        // Self-mapping entries mark prototype membership; not a change.
        if (it->second.size() != 1 || it->second[0] != cp) changed = true;
        next.insert(next.end(), it->second.begin(), it->second.end());
      }
    }
    current = std::move(next);
    if (!changed) break;
  }
  return current;
}

bool ConfusablesDb::confusable(CodePoint a, CodePoint b) const {
  if (a == b) return true;
  const auto sa = skeleton(U32String{a});
  const auto sb = skeleton(U32String{b});
  return sa == sb;
}

std::vector<std::pair<CodePoint, CodePoint>> ConfusablesDb::single_char_pairs() const {
  std::vector<std::pair<CodePoint, CodePoint>> pairs;
  pairs.reserve(map_.size());
  for (const auto& [source, skel] : map_) {
    if (skel.size() == 1 && skel[0] != source) pairs.emplace_back(source, skel[0]);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<CodePoint> ConfusablesDb::all_characters() const {
  std::unordered_set<CodePoint> seen;
  for (const auto& [source, skel] : map_) {
    seen.insert(source);
    seen.insert(skel.begin(), skel.end());
  }
  std::vector<CodePoint> out{seen.begin(), seen.end()};
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sham::unicode
