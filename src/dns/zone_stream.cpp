#include "dns/zone_stream.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "dns/zone_tokens.hpp"

namespace sham::dns {

namespace detail {

std::size_t split_tokens(std::string_view line, std::size_t readable, Tokens& out) noexcept {
  std::size_t count = 0;
  std::size_t start = 0;  // of the open token
  bool open = false;      // a token has started and not yet ended
  for (std::size_t base = 0; base < line.size(); base += 64) {
    const std::size_t left = line.size() - base;
    const char* window = line.data() + base;
    char padded[64];
    if (readable - base < 64) {
      std::memset(padded, ' ', sizeof padded);
      std::memcpy(padded, window, left);
      window = padded;
    }
#if defined(__SSE2__)
    const WindowMasks masks = window_masks_sse2(window);
#else
    const WindowMasks masks = window_masks_table(window);
#endif
    // Separators: whitespace, the first ';' and everything after it, and
    // every position past the line's end.
    std::uint64_t sep = masks.space | (0 - (masks.semicolon & (0 - masks.semicolon)));
    if (left < 64) sep |= ~std::uint64_t{0} << left;
    // A bit where sep differs from the byte before it: a token starts (a
    // separator before a non-separator) or ends. Starts and ends alternate.
    std::uint64_t edges = sep ^ ((sep << 1) | std::uint64_t{!open});
    while (edges != 0) {
      const std::size_t at = base + static_cast<std::size_t>(std::countr_zero(edges));
      edges &= edges - 1;
      if (open) {
        out[count++] = std::string_view{line.data() + start, at - start};
        if (count == kMaxTokens) return count;
      } else {
        start = at;
      }
      open = !open;
    }
    if (masks.semicolon != 0) return count;  // the rest is a comment
  }
  if (open) out[count++] = std::string_view{line.data() + start, line.size() - start};
  return count;
}

}  // namespace detail

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
  const std::size_t count = detail::split_tokens(line, line.size(), tokens);
  return line_kind(line, tokens, count);
}

ZoneReaderState ZoneStreamReader::state() const {
  return {origin_, origin_seen_, default_ttl_, record_.owner.str()};
}

void ZoneStreamReader::process_line(std::string_view line, std::size_t readable) {
  ++line_no_;
  const std::size_t line_no = line_no_;

  // A CR before the consumed LF is whitespace to the tokenizer, and the
  // first ';' starts a comment (zone files quote TXT data; registry zones
  // we model don't contain quoted semicolons).
  Tokens tokens;
  const std::size_t count = detail::split_tokens(line, readable, tokens);
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
  while (!chunk.empty()) {
    const auto newline = chunk.find('\n');
    if (newline == std::string_view::npos) {
      pending_.append(chunk);
      return;
    }
    if (pending_.empty()) {
      // Complete line lives entirely inside this chunk — parse the view
      // in place, no copy. The rest of the chunk is readable.
      process_line(chunk.substr(0, newline), chunk.size());
    } else {
      pending_.append(chunk.substr(0, newline));
      process_line(pending_, pending_.size());
      pending_.clear();
    }
    chunk.remove_prefix(newline + 1);
  }
}

std::size_t ZoneStreamReader::finish() {
  if (finished_) {
    throw std::logic_error{"ZoneStreamReader: finish() called twice"};
  }
  finished_ = true;
  if (!pending_.empty()) {
    process_line(pending_, pending_.size());
    pending_.clear();
  }
  return records_;
}

void feed_file(ZoneStreamReader& reader, const util::InputFile& file,
               std::size_t begin, std::size_t end) {
  char buffer[64 * 1024];
  while (begin < end) {
    const std::size_t got =
        file.read_at(buffer, std::min(sizeof buffer, end - begin), begin);
    if (got == 0) return;  // end of file
    reader.feed(std::string_view{buffer, got});
    begin += got;
  }
}

}  // namespace sham::dns
