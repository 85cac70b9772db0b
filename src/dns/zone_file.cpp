#include "dns/zone_file.hpp"

#include <algorithm>

#include "dns/zone_stream.hpp"
#include "util/input_file.hpp"

namespace sham::dns {

// All three entry points are thin shells over the incremental
// ZoneStreamReader core (zone_stream.hpp) — one parser, three feeding
// disciplines. parse_zone additionally materializes the record list and
// carries the directive state (the origin/TTL in effect at end of file)
// out of the reader.

void parse_zone_stream(std::string_view text,
                       const std::function<void(const ResourceRecord&)>& sink) {
  ZoneStreamReader reader{sink};
  reader.feed(text);
  reader.finish();
}

Zone parse_zone(std::string_view text) {
  Zone zone;
  ZoneStreamReader reader{
      [&](const ResourceRecord& r) { zone.records.push_back(r); }};
  reader.feed(text);
  reader.finish();
  // The origin/TTL in effect at end of file — a mid-file $ORIGIN change
  // must be reflected, not latched at the first directive (records are
  // stored fully qualified, so only the final state is meaningful).
  // "$ORIGIN ." (the root) leaves the origin empty.
  if (!reader.origin().empty()) {
    zone.origin = DomainName::parse_or_throw(reader.origin());
  }
  zone.default_ttl = reader.default_ttl();
  return zone;
}

std::size_t parse_zone_file(const std::string& path,
                            const std::function<void(const ResourceRecord&)>& sink) {
  const util::InputFile file{path};
  ZoneStreamReader reader{sink};
  util::for_each_window(file, 0, file.size(),
                        [&](std::string_view window) { reader.feed(window); });
  return reader.finish();
}

std::string serialize_record(const ResourceRecord& r) {
  std::string out;
  out += r.owner.str() + ". " + std::to_string(r.ttl) + " IN " +
         std::string{record_type_name(r.type)} + " " + r.rdata_str();
  if (r.type == RecordType::kNs || r.type == RecordType::kCname ||
      r.type == RecordType::kMx) {
    out += '.';  // absolute targets
  }
  out += '\n';
  return out;
}

std::string serialize_zone(const Zone& zone) {
  std::string out;
  if (!zone.origin.str().empty()) {
    out += "$ORIGIN " + zone.origin.str() + ".\n";
  }
  out += "$TTL " + std::to_string(zone.default_ttl) + "\n";
  for (const auto& r : zone.records) out += serialize_record(r);
  return out;
}

std::vector<DomainName> Zone::owners() const {
  std::vector<DomainName> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.owner);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace sham::dns
