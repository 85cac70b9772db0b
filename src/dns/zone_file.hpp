// DNS master-file (zone file) reader/writer — the format registries like
// Verisign publish for .com, which is Step 1's input (Section 3.1, 5.2).
// Supports the subset registry zones use: $ORIGIN/$TTL directives,
// owner-relative names, NS/A/AAAA/MX/CNAME/TXT records, ';' comments,
// and blank owner continuation (repeat previous owner).
//
// Record lifetime: the streaming entry points hand each record to `sink`
// as a `const ResourceRecord&` to the reader's one reused record, valid
// only during that call. A sink copies whatever it keeps (parse_zone
// copies every record).
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dns/records.hpp"

namespace sham::dns {

struct Zone {
  DomainName origin;
  std::uint32_t default_ttl = 86400;
  std::vector<ResourceRecord> records;

  /// Distinct owner names (ascending) — the registered-domain list Step 1
  /// extracts from a zone.
  [[nodiscard]] std::vector<DomainName> owners() const;
};

class ZoneParseError : public std::runtime_error {
 public:
  ZoneParseError(std::size_t line, const std::string& message)
      : std::runtime_error{"zone line " + std::to_string(line) + ": " + message},
        line_{line},
        message_{message} {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  /// The diagnostic without its "zone line N: " prefix.
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

 private:
  std::size_t line_;
  std::string message_;
};

/// Parse zone text; throws ZoneParseError on malformed input. The
/// returned Zone carries the $ORIGIN/$TTL state in effect at end of file
/// (a mid-file $ORIGIN change is reflected, not latched at the first
/// directive). Implemented over ZoneStreamReader (zone_stream.hpp), as
/// are the two streaming variants below.
[[nodiscard]] Zone parse_zone(std::string_view text);

/// Streaming variant: invoke `sink` per record without materialising the
/// zone (registry zones are tens of GB in the paper's setting).
void parse_zone_stream(std::string_view text,
                       const std::function<void(const ResourceRecord&)>& sink);

/// Serialize one record as a master-file line (absolute owner/target,
/// explicit TTL and class) — the building block of serialize_zone, public
/// so zone writers can stream records to disk without materialising the
/// zone text.
[[nodiscard]] std::string serialize_record(const ResourceRecord& record);

/// Serialize back to master-file text (round-trips with parse_zone).
[[nodiscard]] std::string serialize_zone(const Zone& zone);

/// Stream a zone file from disk without loading it into memory (registry
/// zones run to tens of GB; Section 5.2): it is mapped and parsed in place
/// one bounded window at a time (util::InputFile). Throws
/// std::runtime_error naming the path if the file cannot be opened, is not
/// a regular file, or cannot be read or mapped; ZoneParseError on
/// malformed records. The file must not shrink while it is read.
/// Returns the number of records delivered to `sink`.
std::size_t parse_zone_file(const std::string& path,
                            const std::function<void(const ResourceRecord&)>& sink);

}  // namespace sham::dns
