// The "UC" homoglyph database: Unicode UTS #39 confusable mappings
// (confusables.txt). Each entry maps a source character to its prototype
// skeleton (one or more characters); two strings are confusable when their
// skeletons are equal.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "unicode/codepoint.hpp"

namespace sham::unicode {

struct ConfusableEntry {
  CodePoint source = 0;
  U32String skeleton;  // prototype sequence (usually one char)
};

/// UTS #39 confusables database.
class ConfusablesDb {
 public:
  /// The embedded curated database (see data/confusables_data.inc).
  static const ConfusablesDb& embedded();

  /// Parse confusables.txt content ("XXXX ; YYYY ZZZZ ; MA # comment").
  /// Unparseable lines, and code points above U+10FFFF, throw
  /// std::invalid_argument with a line number.
  static ConfusablesDb parse(std::string_view text);

  ConfusablesDb() = default;
  explicit ConfusablesDb(std::vector<ConfusableEntry> entries);

  /// Prototype skeleton of one code point (identity if unmapped).
  [[nodiscard]] U32String skeleton_of(CodePoint cp) const;

  /// UTS #39 skeleton(X): map every character, to a fixed point.
  [[nodiscard]] U32String skeleton(const U32String& text) const;

  /// True if the two code points share a single-character skeleton class.
  [[nodiscard]] bool confusable(CodePoint a, CodePoint b) const;

  /// All (source, prototype) pairs whose skeleton is a single character.
  /// These are the "homoglyph pairs" used by the detection DB.
  [[nodiscard]] std::vector<std::pair<CodePoint, CodePoint>> single_char_pairs() const;

  /// Every code point mentioned (sources and prototype members).
  [[nodiscard]] std::vector<CodePoint> all_characters() const;

  [[nodiscard]] std::size_t entry_count() const noexcept { return map_.size(); }

  [[nodiscard]] bool contains(CodePoint cp) const { return map_.contains(cp); }

 private:
  std::unordered_map<CodePoint, U32String> map_;
};

}  // namespace sham::unicode
