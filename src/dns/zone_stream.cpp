#include "dns/zone_stream.hpp"

#include <string.h>  // memrchr

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "dns/zone_tokens.hpp"

namespace sham::dns {

namespace {

using detail::Tokens;

/// The kind of a line split into `count` tokens: the one rule classify()
/// and process_line() share.
ZoneLineKind line_kind(std::string_view line, const Tokens& tokens,
                       std::size_t count) noexcept {
  if (count == 0) return ZoneLineKind::kEmpty;
  if (tokens[0] == "$ORIGIN" || tokens[0] == "$TTL") return ZoneLineKind::kDirective;
  return line[0] == ' ' || line[0] == '\t' ? ZoneLineKind::kContinuation
                                           : ZoneLineKind::kOwner;
}

/// Parse a non-negative decimal token, rejecting values above `max` with
/// a diagnostic naming `what` — registry feeds with corrupted TTL or
/// priority columns must fail loudly, not wrap modulo 2^32 / 2^16.
std::uint64_t parse_bounded(std::string_view token, std::uint64_t max,
                            const char* what, std::size_t line_no) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    throw ZoneParseError{line_no, std::string{"bad "} + what + " value: '" +
                                      std::string{token} + "'"};
  }
  if (value > max) {
    throw ZoneParseError{line_no, std::string{what} + " out of range: " +
                                      std::string{token} + " (max " +
                                      std::to_string(max) + ")"};
  }
  return value;
}

/// An owner or target token resolved against $ORIGIN but not yet copied:
/// the name is `name`, followed by "." and `origin` when that is non-empty.
struct NameParts {
  std::string_view name;
  std::string_view origin;
};

// "@" means the origin, names without a trailing dot are origin-relative,
// and names with one are absolute: exactly that one dot is stripped, so
// "foo.." stays invalid. Under "$ORIGIN ." (the DNS root, tracked as the
// empty origin) relative names are absolute as-is; the root itself ("@"
// under it, or a bare ".") is not a registrable name and is rejected with a
// diagnostic instead of being collapsed to an empty string.
NameParts resolve_name(std::string_view token, const std::string& origin,
                       bool origin_seen, std::size_t line_no) {
  if (token == "@") {
    if (!origin_seen) throw ZoneParseError{line_no, "'@' without $ORIGIN"};
    if (origin.empty()) {
      throw ZoneParseError{line_no, "'@' under '$ORIGIN .' names the DNS root"};
    }
    return {origin, {}};
  }
  if (token == ".") {
    throw ZoneParseError{line_no, "the DNS root '.' is not a valid name here"};
  }
  if (token.back() == '.') return {token.substr(0, token.size() - 1), {}};
  return {token, origin};
}

[[noreturn]] void throw_bad_name(std::size_t line_no, const char* what,
                                 std::string_view token) {
  throw ZoneParseError{line_no, std::string{"bad "} + what + " name: '" +
                                    std::string{token} + "'"};
}

}  // namespace

ZoneStreamReader::ZoneStreamReader(Sink sink) : sink_{std::move(sink)} {}

ZoneStreamReader::ZoneStreamReader(Sink sink, const ZoneReaderState& start)
    : sink_{std::move(sink)},
      origin_{start.origin},
      origin_seen_{start.origin_seen},
      default_ttl_{start.default_ttl} {
  if (!start.owner.empty() && !record_.owner.assign(start.owner)) {
    throw std::invalid_argument{"ZoneStreamReader: bad start owner '" + start.owner + "'"};
  }
}

ZoneLineKind ZoneStreamReader::classify(std::string_view line) noexcept {
  Tokens tokens;
  ZoneLineKind kind = ZoneLineKind::kEmpty;
  detail::walk_lines(line.data(), line.size(), line.size(), tokens,
                     [&](std::string_view walked, std::size_t count) {
                       kind = line_kind(walked, tokens, count);
                     });
  return kind;
}

ZoneReaderState ZoneStreamReader::state() const {
  return {origin_, origin_seen_, default_ttl_, record_.owner.str()};
}

void ZoneStreamReader::walk(const char* data, std::size_t size, std::size_t readable) {
  static_assert(std::is_same_v<decltype(tokens_), Tokens>);
  detail::walk_lines(data, size, readable, tokens_,
                     [this](std::string_view line, std::size_t count) {
                       process_line(line, count);
                     });
}

void ZoneStreamReader::process_line(std::string_view line, std::size_t count) {
  ++line_no_;
  const std::size_t line_no = line_no_;

  // A CR before the consumed LF is whitespace to the walk, and the first
  // ';' starts a comment (zone files quote TXT data; registry zones we
  // model don't contain quoted semicolons).
  const Tokens& tokens = tokens_;
  const ZoneLineKind kind = line_kind(line, tokens, count);
  if (kind == ZoneLineKind::kEmpty) return;

  if (kind == ZoneLineKind::kDirective) {
    if (tokens[0] == "$TTL") {
      if (count != 2) throw ZoneParseError{line_no, "$TTL needs a value"};
      default_ttl_ = static_cast<std::uint32_t>(parse_bounded(
          tokens[1], std::numeric_limits<std::uint32_t>::max(), "$TTL", line_no));
      return;
    }
    if (count != 2) throw ZoneParseError{line_no, "$ORIGIN needs a name"};
    if (tokens[1] == ".") {
      // The absolute root: relative names below are already fully
      // qualified. Tracked as the empty origin.
      origin_.clear();
      origin_seen_ = true;
      return;
    }
    const auto parsed = DomainName::parse(tokens[1]);
    if (!parsed) throw ZoneParseError{line_no, "bad $ORIGIN name"};
    origin_ = parsed->str();
    origin_seen_ = true;
    return;
  }

  ResourceRecord& record = record_;
  std::size_t i = 0;
  if (kind == ZoneLineKind::kContinuation) {
    if (record.owner.str().empty()) throw ZoneParseError{line_no, "record without owner"};
  } else {
    const auto token = tokens[i++];
    const auto parts = resolve_name(token, origin_, origin_seen_, line_no);
    if (!record.owner.assign(parts.name, parts.origin)) {
      throw_bad_name(line_no, "owner", token);
    }
  }

  if (i >= count) throw ZoneParseError{line_no, "missing record type"};

  // Every field is set afresh: the record still holds the previous line's.
  record.ttl = default_ttl_;
  record.target.clear();
  record.address = {};
  record.priority = 0;

  // Optional TTL and/or class ("IN") in either order before the type. No
  // record type starts with a digit.
  for (int guard = 0; guard < 2 && i < count; ++guard) {
    const auto token = tokens[i];
    if (token == "IN") {
      ++i;
      continue;
    }
    if (token[0] >= '0' && token[0] <= '9') {
      record.ttl = static_cast<std::uint32_t>(parse_bounded(
          token, std::numeric_limits<std::uint32_t>::max(), "TTL", line_no));
      ++i;
      continue;
    }
    break;
  }

  if (i >= count) throw ZoneParseError{line_no, "missing record type"};
  const auto type = parse_record_type(tokens[i]);
  if (!type) throw ZoneParseError{line_no, "unknown record type: " + std::string{tokens[i]}};
  record.type = *type;
  ++i;

  const auto set_target = [&](std::string_view token) {
    const auto parts = resolve_name(token, origin_, origin_seen_, line_no);
    if (!DomainName::normalize(record.target, parts.name, parts.origin)) {
      throw_bad_name(line_no, "target", token);
    }
  };
  switch (record.type) {
    case RecordType::kA: {
      if (i >= count) throw ZoneParseError{line_no, "A record needs an address"};
      const auto addr = Ipv4::parse(tokens[i]);
      if (!addr) throw ZoneParseError{line_no, "bad IPv4 address"};
      record.address = *addr;
      break;
    }
    case RecordType::kMx: {
      if (i + 1 >= count) throw ZoneParseError{line_no, "MX needs priority + host"};
      record.priority = static_cast<std::uint16_t>(parse_bounded(
          tokens[i], std::numeric_limits<std::uint16_t>::max(), "MX priority",
          line_no));
      set_target(tokens[i + 1]);
      break;
    }
    case RecordType::kNs:
    case RecordType::kCname: {
      if (i >= count) throw ZoneParseError{line_no, "record needs a target"};
      set_target(tokens[i]);
      break;
    }
    case RecordType::kAaaa:
    case RecordType::kTxt: {
      if (i >= count) throw ZoneParseError{line_no, "record needs rdata"};
      record.target.assign(tokens[i]);
      break;
    }
  }
  ++records_;
  sink_(record);
}

void ZoneStreamReader::feed(std::string_view chunk) {
  if (finished_) {
    throw std::logic_error{"ZoneStreamReader: feed() after finish()"};
  }
  if (chunk.empty()) return;
  if (!pending_.empty()) {
    // Complete the line carried over from the last chunk and walk it on
    // its own.
    const auto* newline =
        static_cast<const char*>(std::memchr(chunk.data(), '\n', chunk.size()));
    if (newline == nullptr) {
      pending_.append(chunk);
      return;
    }
    const auto through = static_cast<std::size_t>(newline - chunk.data()) + 1;
    pending_.append(chunk.data(), through);
    walk(pending_.data(), pending_.size(), pending_.size());
    pending_.clear();
    chunk.remove_prefix(through);
  }
  // Every complete line of the chunk in one walk, parsed in place; the rest
  // of the chunk is readable. A partial last line waits for its newline.
  const auto* last = static_cast<const char*>(memrchr(chunk.data(), '\n', chunk.size()));
  const std::size_t complete =
      last == nullptr ? 0 : static_cast<std::size_t>(last - chunk.data()) + 1;
  walk(chunk.data(), complete, chunk.size());
  pending_.append(chunk.data() + complete, chunk.size() - complete);
}

std::size_t ZoneStreamReader::finish() {
  if (finished_) {
    throw std::logic_error{"ZoneStreamReader: finish() called twice"};
  }
  finished_ = true;
  if (!pending_.empty()) {
    walk(pending_.data(), pending_.size(), pending_.size());
    pending_.clear();
  }
  return records_;
}

}  // namespace sham::dns
