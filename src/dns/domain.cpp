#include "dns/domain.hpp"

#include <array>
#include <stdexcept>

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

}  // namespace

bool DomainName::normalize(std::string& out, std::string_view name,
                           std::string_view origin) {
  // "name.origin" splits at the joining dot into the labels of each part.
  const std::size_t size = name.size() + (origin.empty() ? 0 : 1 + origin.size());
  if (size == 0 || size > 253) return false;
  out.resize(size);
  char* const p = out.data();
  if (!copy_labels(name, p)) return false;
  if (origin.empty()) return true;
  p[name.size()] = '.';
  return copy_labels(origin, p + name.size() + 1);
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
