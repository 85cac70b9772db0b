#include "dns/domain.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "idna/idna.hpp"
#include "util/strings.hpp"

namespace sham::dns {

namespace {

/// Every octet a name may hold (LDH, '_' and '.') mapped to its lowercase
/// form; every other byte to 0.
constexpr std::array<char, 256> kNameOctet = [] {
  std::array<char, 256> table{};
  for (char c = 'a'; c <= 'z'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (char c = 'A'; c <= 'Z'; ++c) table[static_cast<unsigned char>(c)] = c - 'A' + 'a';
  for (char c = '0'; c <= '9'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (const char c : {'-', '_', '.'}) table[static_cast<unsigned char>(c)] = c;
  return table;
}();

/// Copy `part` to `to` through kNameOctet; returns whether it is labels of
/// 1-63 allowed octets, joined by '.', none starting or ending with '-'.
bool copy_labels(std::string_view part, char* to) noexcept {
  std::size_t label_start = 0;
  for (std::size_t i = 0; i < part.size(); ++i) {
    const char c = kNameOctet[static_cast<unsigned char>(part[i])];
    if (c == 0) return false;
    to[i] = c;
    if (c == '.') {
      const std::size_t length = i - label_start;
      if (length == 0 || length > 63 || part[label_start] == '-' || part[i - 1] == '-') {
        return false;
      }
      label_start = i + 1;
    }
  }
  const std::size_t length = part.size() - label_start;
  return length != 0 && length <= 63 && part[label_start] != '-' && part.back() != '-';
}

#if defined(__SSE2__)
/// copy_labels for a part of 16-64 octets, 16 at a time. SSE2 is the x86-64
/// baseline, so no runtime dispatch is needed. The blocks at 0, 16, 32 and
/// 48 that fit, plus the one ending at the last octet, cover the part
/// without reading past it; overlapping stores write equal bytes. Bit i of
/// each mask describes octet i, and the label rules follow from the masks.
bool copy_labels_sse2(std::string_view part, char* to) noexcept {
  const std::size_t n = part.size();
  // Adding 0x80 - lo moves [lo, lo + width) to the lowest signed values,
  // so one signed compare tests the range.
  const auto in_range = [](__m128i bytes, char lo, char width) {
    return _mm_cmplt_epi8(_mm_add_epi8(bytes, _mm_set1_epi8(static_cast<char>(0x80 - lo))),
                          _mm_set1_epi8(static_cast<char>(-128 + width)));
  };
  std::uint64_t allowed = 0;
  std::uint64_t dot = 0;
  std::uint64_t hyphen = 0;
  const auto block = [&](std::size_t at) {
    const __m128i bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(part.data() + at));
    const __m128i lower = _mm_add_epi8(
        bytes, _mm_and_si128(in_range(bytes, 'A', 26), _mm_set1_epi8(0x20)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(to + at), lower);
    const __m128i is_dot = _mm_cmpeq_epi8(lower, _mm_set1_epi8('.'));
    const __m128i is_hyphen = _mm_cmpeq_epi8(lower, _mm_set1_epi8('-'));
    const __m128i ok = _mm_or_si128(
        _mm_or_si128(in_range(lower, 'a', 26), in_range(lower, '0', 10)),
        _mm_or_si128(_mm_or_si128(is_dot, is_hyphen),
                     _mm_cmpeq_epi8(lower, _mm_set1_epi8('_'))));
    const auto bits = [at](__m128i lanes) {
      return std::uint64_t{static_cast<std::uint16_t>(_mm_movemask_epi8(lanes))} << at;
    };
    allowed |= bits(ok);
    dot |= bits(is_dot);
    hyphen |= bits(is_hyphen);
  };
  for (std::size_t at = 0; at + 16 <= n; at += 16) block(at);
  block(n - 16);

  const std::uint64_t last = std::uint64_t{1} << (n - 1);
  const std::uint64_t octets = 2 * last - 1;  // wraps to all ones at n = 64
  // Each label's first and last octet: octet 0, the octets after and
  // before each dot, and the last octet.
  const std::uint64_t edge = ((dot << 1) | 1 | (dot >> 1) | last) & octets;
  // An edge that is a dot is an empty label; one that is a hyphen starts or
  // ends a label. A 64-octet part without a dot is one 64-octet label.
  return (allowed & octets) == octets && (edge & (dot | hyphen)) == 0 &&
         (n < 64 || dot != 0);
}
#endif

/// copy_labels through the SSE2 path where it applies.
bool copy_part(std::string_view part, char* to) noexcept {
#if defined(__SSE2__)
  if (part.size() >= 16 && part.size() <= 64) return copy_labels_sse2(part, to);
#endif
  return copy_labels(part, to);
}

}  // namespace

bool DomainName::normalize(std::string& out, std::string_view name,
                           std::string_view origin) {
  // "name.origin" splits at the joining dot into the labels of each part.
  const std::size_t size = name.size() + (origin.empty() ? 0 : 1 + origin.size());
  if (size == 0 || size > 253) return false;
  out.resize(size);
  char* const p = out.data();
  if (!copy_part(name, p)) return false;
  if (origin.empty()) return true;
  p[name.size()] = '.';
  return copy_part(origin, p + name.size() + 1);
}

std::optional<DomainName> DomainName::parse(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);  // FQDN dot
  DomainName out;
  if (!out.assign(text)) return std::nullopt;
  return out;
}

DomainName DomainName::parse_or_throw(std::string_view text) {
  auto d = parse(text);
  if (!d) throw std::invalid_argument{"DomainName: invalid name: '" + std::string{text} + "'"};
  return *std::move(d);
}

std::vector<std::string_view> DomainName::labels() const {
  return util::split(name_, '.');
}

std::string_view DomainName::tld() const {
  const auto dot = name_.rfind('.');
  if (dot == std::string::npos) return {};
  return std::string_view{name_}.substr(dot + 1);
}

std::string_view DomainName::sld() const {
  const auto parts = labels();
  if (parts.size() == 1) return parts[0];
  return parts[parts.size() - 2];
}

std::string_view DomainName::without_tld() const {
  const auto dot = name_.rfind('.');
  if (dot == std::string::npos) return std::string_view{name_};
  return std::string_view{name_}.substr(0, dot);
}

bool DomainName::is_idn() const { return idna::is_idn(name_); }

}  // namespace sham::dns
