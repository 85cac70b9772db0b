#include "dns/domain.hpp"

#include <stdexcept>

#include "idna/idna.hpp"
#include "util/strings.hpp"

namespace sham::dns {

bool DomainName::normalize(std::string& out, std::string_view name,
                           std::string_view origin) {
  out.assign(name);
  if (!origin.empty()) {
    out += '.';
    out += origin;
  }
  const std::size_t size = out.size();
  if (size == 0 || size > 253) return false;
  // Through locals: a store via out[i] may alias the string's own fields,
  // which would reload its size and data pointer on every octet.
  char* const p = out.data();
  std::size_t label_start = 0;
  for (std::size_t i = 0; i <= size; ++i) {
    if (i == size || p[i] == '.') {
      const std::size_t length = i - label_start;
      if (length == 0 || length > 63 || p[label_start] == '-' || p[i - 1] == '-') {
        return false;
      }
      label_start = i + 1;
      continue;
    }
    char c = p[i];
    if (c >= 'A' && c <= 'Z') p[i] = c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
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
