#include "dns/records.hpp"

namespace sham::dns {

std::string_view record_type_name(RecordType type) noexcept {
  switch (type) {
    case RecordType::kNs: return "NS";
    case RecordType::kA: return "A";
    case RecordType::kAaaa: return "AAAA";
    case RecordType::kMx: return "MX";
    case RecordType::kCname: return "CNAME";
    case RecordType::kTxt: return "TXT";
  }
  return "??";
}

std::optional<RecordType> parse_record_type(std::string_view text) noexcept {
  if (text == "NS") return RecordType::kNs;
  if (text == "A") return RecordType::kA;
  if (text == "AAAA") return RecordType::kAaaa;
  if (text == "MX") return RecordType::kMx;
  if (text == "CNAME") return RecordType::kCname;
  if (text == "TXT") return RecordType::kTxt;
  return std::nullopt;
}

// Exactly four dot-separated octets of 1-3 decimal digits, each <= 255.
std::optional<Ipv4> Ipv4::parse(std::string_view text) {
  std::uint32_t value = 0;
  for (int part = 0; part < 4; ++part) {
    if (part != 0) {
      if (text.empty() || text.front() != '.') return std::nullopt;
      text.remove_prefix(1);
    }
    std::size_t digits = 0;
    std::uint32_t octet = 0;
    while (digits < text.size() && digits <= 3 && text[digits] >= '0' &&
           text[digits] <= '9') {
      octet = octet * 10 + static_cast<std::uint32_t>(text[digits] - '0');
      ++digits;
    }
    if (digits == 0 || digits > 3 || octet > 255) return std::nullopt;
    value = (value << 8) | octet;
    text.remove_prefix(digits);
  }
  if (!text.empty()) return std::nullopt;
  return Ipv4{value};
}

std::string Ipv4::str() const {
  return std::to_string((value >> 24) & 0xFF) + '.' + std::to_string((value >> 16) & 0xFF) +
         '.' + std::to_string((value >> 8) & 0xFF) + '.' + std::to_string(value & 0xFF);
}

std::string ResourceRecord::rdata_str() const {
  switch (type) {
    case RecordType::kA:
      return address.str();
    case RecordType::kMx:
      return std::to_string(priority) + " " + target;
    default:
      return target;
  }
}

}  // namespace sham::dns
