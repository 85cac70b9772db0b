// Domain-name value type and label utilities (wire-format ASCII names,
// case-insensitive, dot-separated; RFC 1035 length limits).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "unicode/codepoint.hpp"

namespace sham::dns {

/// A fully qualified domain name in ASCII wire form without the trailing
/// dot, stored lowercase (e.g. "xn--ggle-0nda.com").
class DomainName {
 public:
  DomainName() = default;

  /// Parse and validate: 1-253 octets, labels 1-63 octets of LDH
  /// (underscore additionally tolerated, as zone files contain service
  /// labels). Returns std::nullopt on violation.
  static std::optional<DomainName> parse(std::string_view text);

  /// Parse, throwing std::invalid_argument on violation.
  static DomainName parse_or_throw(std::string_view text);

  /// The one set of name rules. Sets `out` to `name`, followed by "." and
  /// `origin` when `origin` is non-empty, lowercased, and returns whether
  /// it is 1-253 octets of labels that are 1-63 octets of LDH (underscore
  /// tolerated) and neither start nor end with '-'; on false, `out` is
  /// unspecified. No FQDN dot is stripped. On SSE2 a part (`name` or
  /// `origin`) of 16-64 octets is lowercased and checked 16 octets at a
  /// time, from byte-class masks; other parts, and every part on other
  /// targets, go through a table, one octet at a time. Nothing is read past
  /// either part. Allocates only if `out` lacks the capacity. Neither `name`
  /// nor `origin` may view `out`'s own characters. parse() runs it, and the
  /// zone reader runs it on every owner and every NS/CNAME/MX target.
  static bool normalize(std::string& out, std::string_view name,
                        std::string_view origin = {});

  /// normalize() into this name's own buffer, which keeps its capacity, so
  /// a DomainName reused line after line (the zone reader's owner) stops
  /// allocating. Returns false, leaving the name unspecified, on violation.
  bool assign(std::string_view name, std::string_view origin = {}) {
    return normalize(name_, name, origin);
  }

  [[nodiscard]] const std::string& str() const noexcept { return name_; }
  [[nodiscard]] std::vector<std::string_view> labels() const;

  /// Top-level domain ("com" for "a.b.com"); empty for single-label names.
  [[nodiscard]] std::string_view tld() const;

  /// The registrable second-level label ("b" for "a.b.com", "b" for
  /// "b.com").
  [[nodiscard]] std::string_view sld() const;

  /// Name with the TLD label removed — the form Algorithm 1 compares
  /// ("google" for "google.com").
  [[nodiscard]] std::string_view without_tld() const;

  /// True if any label carries the IDN ACE prefix.
  [[nodiscard]] bool is_idn() const;

  [[nodiscard]] bool operator==(const DomainName&) const = default;
  [[nodiscard]] auto operator<=>(const DomainName&) const = default;

 private:
  std::string name_;
};

}  // namespace sham::dns

template <>
struct std::hash<sham::dns::DomainName> {
  std::size_t operator()(const sham::dns::DomainName& d) const noexcept {
    return std::hash<std::string>{}(d.str());
  }
};
