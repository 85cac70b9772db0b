// Incremental, chunk-fed zone-file reader — the bounded-memory core every
// zone entry point (parse_zone, parse_zone_stream, parse_zone_file) is
// built on. Registry zones run to tens of GB in the paper's setting
// (141 M .com domains, Section 5.2), so the reader never materializes the
// file: callers feed() arbitrary byte chunks — split anywhere, including
// mid-token, mid-comment, or between a CR and its LF — and records are
// delivered to the sink as soon as their line completes. Parser state
// ($ORIGIN / $TTL in effect, the previous owner for blank-owner
// continuation lines, the running line number for diagnostics) carries
// across chunk boundaries, so a stream cut into 1-byte chunks yields the
// record sequence of a one-shot parse, byte for byte.
//
// Each chunk is read in one pass: its complete lines are walked in
// consecutive 64-byte windows, each window becoming three masks
// (whitespace, ';', '\n'), and line ends, tokens and comment cuts all fall
// out of the masks (dns/zone_tokens.hpp), so every byte is classified once.
// A window is loaded in place when its 64 bytes lie inside the chunk being
// fed; otherwise (the chunk's last window, a line carried over from an
// earlier chunk) it is copied into a padded buffer, so the reader never
// reads past what it was given. Fed a whole mapped range at once, as a zone
// slice feeds it, the reader copies nothing.
//
// The per-record path allocates nothing in steady state: every line is
// parsed into one member ResourceRecord whose owner and target strings
// keep their capacity, tokens land in a fixed array the reader owns (filled
// line by line, never cleared), and names are resolved, lowercased and
// validated by one copy of each octet (DomainName::normalize).
//
// A reader can also start mid-file: given the state a sequential parse has
// at a line boundary (ZoneReaderState), it parses the rest exactly as that
// parse would. That is how a zone is cut into slices parsed in parallel
// (measure/scale_run.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "dns/records.hpp"
#include "dns/zone_file.hpp"

namespace sham::dns {

/// Everything a parse carries from one line to the next, apart from the
/// line count.
struct ZoneReaderState {
  /// The $ORIGIN in effect, without its trailing dot ("" = unset or root).
  std::string origin{};
  bool origin_seen = false;
  std::uint32_t default_ttl = 86400;
  /// Normalized owner of the last record ("" before the first): the owner
  /// a continuation line inherits.
  std::string owner{};

  friend bool operator==(const ZoneReaderState&, const ZoneReaderState&) = default;
};

/// How the parser treats a line (without its '\n'): no record at all, a
/// $ORIGIN/$TTL directive (its first token, after any indentation), a
/// record that inherits the previous owner, or a record naming its owner.
enum class ZoneLineKind { kEmpty, kDirective, kContinuation, kOwner };

class ZoneStreamReader {
 public:
  using Sink = std::function<void(const ResourceRecord&)>;

  /// `sink` is invoked once per parsed record, in file order. The record
  /// it receives is the reader's own, reused for the next line: it is
  /// valid only during the call, so a sink copies whatever it keeps.
  explicit ZoneStreamReader(Sink sink);

  /// A reader that starts at a line boundary in `start`, the state a
  /// sequential parse has there. lines() and error line numbers count from
  /// that boundary.
  ZoneStreamReader(Sink sink, const ZoneReaderState& start);

  /// Classify one line exactly as the parser does.
  [[nodiscard]] static ZoneLineKind classify(std::string_view line) noexcept;

  /// Consume the next chunk of zone text. Chunks may be any size (one
  /// byte up to the whole file) and may split the text anywhere; CRLF and
  /// LF line endings are both accepted. Throws ZoneParseError (with the
  /// absolute line number) on a malformed record; the reader is then in
  /// an unspecified state and must be discarded.
  void feed(std::string_view chunk);

  /// Flush a trailing unterminated line (files need not end in a
  /// newline). Must be called exactly once, after the last feed();
  /// further feed() calls are rejected. Returns records().
  std::size_t finish();

  /// Records delivered to the sink so far.
  [[nodiscard]] std::size_t records() const noexcept { return records_; }
  /// Lines fully processed so far.
  [[nodiscard]] std::size_t lines() const noexcept { return line_no_; }

  /// True once a $ORIGIN directive has been seen (including the absolute
  /// root "$ORIGIN .", whose origin() is the empty string).
  [[nodiscard]] bool origin_seen() const noexcept { return origin_seen_; }
  /// The $ORIGIN currently in effect, without its trailing dot; empty
  /// when unset or when the origin is the DNS root.
  [[nodiscard]] const std::string& origin() const noexcept { return origin_; }
  /// The $TTL currently in effect (the zone-file default until the first
  /// $TTL directive).
  [[nodiscard]] std::uint32_t default_ttl() const noexcept { return default_ttl_; }
  /// The state after the lines processed so far.
  [[nodiscard]] ZoneReaderState state() const;

 private:
  /// Parse every line of bytes [data, data + size), the last one ending
  /// at `size` when it has no '\n'; `readable` >= size bytes may be read.
  void walk(const char* data, std::size_t size, std::size_t readable);
  /// Parse one line (without its '\n') whose first `count` tokens are in
  /// tokens_.
  void process_line(std::string_view line, std::size_t count);

  Sink sink_;
  std::string origin_;
  bool origin_seen_ = false;
  std::uint32_t default_ttl_ = 86400;
  /// The record every line is parsed into. Its owner is also the previous
  /// owner a continuation line inherits (empty before the first record).
  ResourceRecord record_;
  /// The current line's tokens (dns/zone_tokens.hpp's detail::Tokens).
  std::array<std::string_view, 8> tokens_;
  /// Partial final line of the previous chunk, awaiting its newline.
  std::string pending_;
  std::size_t line_no_ = 0;
  std::size_t records_ = 0;
  bool finished_ = false;
};

}  // namespace sham::dns
