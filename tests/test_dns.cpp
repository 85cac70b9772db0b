#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "dns/domain.hpp"
#include "dns/langid.hpp"
#include "dns/records.hpp"
#include "dns/zone_file.hpp"
#include "dns/zone_stream.hpp"
#include "dns/zone_tokens.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

// A counting replacement for the global allocator: it counts only while
// armed, on the arming thread, so ZoneStream.SteadyStateAllocatesNothing
// can see every heap allocation the reader makes.
namespace {
thread_local bool g_count_allocations = false;
thread_local std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
// Out of line, so the compiler cannot pair an inlined free() with an
// allocation made by operator new and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sham::dns {
namespace {

TEST(DomainName, ParseAndNormalize) {
  const auto d = DomainName::parse("WWW.Example.COM");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->str(), "www.example.com");
}

TEST(DomainName, TrailingDotAccepted) {
  const auto d = DomainName::parse("example.com.");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->str(), "example.com");
}

TEST(DomainName, RejectsInvalid) {
  EXPECT_FALSE(DomainName::parse("").has_value());
  EXPECT_FALSE(DomainName::parse(".").has_value());
  EXPECT_FALSE(DomainName::parse("a..b").has_value());
  EXPECT_FALSE(DomainName::parse("-leading.com").has_value());
  EXPECT_FALSE(DomainName::parse("trailing-.com").has_value());
  EXPECT_FALSE(DomainName::parse("has space.com").has_value());
  EXPECT_FALSE(DomainName::parse("exämple.com").has_value());  // raw non-ASCII
  EXPECT_FALSE(DomainName::parse(std::string(64, 'a') + ".com").has_value());
  EXPECT_FALSE(DomainName::parse(std::string(300, 'a')).has_value());
  EXPECT_THROW(DomainName::parse_or_throw("!bad!"), std::invalid_argument);
}

TEST(DomainName, Accessors) {
  const auto d = DomainName::parse_or_throw("www.google.com");
  EXPECT_EQ(d.tld(), "com");
  EXPECT_EQ(d.sld(), "google");
  EXPECT_EQ(d.without_tld(), "www.google");
  EXPECT_EQ(d.labels().size(), 3u);
  const auto single = DomainName::parse_or_throw("localhost");
  EXPECT_EQ(single.tld(), "");
  EXPECT_EQ(single.sld(), "localhost");
}

TEST(DomainName, IdnDetection) {
  EXPECT_TRUE(DomainName::parse_or_throw("xn--ggle-55da.com").is_idn());
  EXPECT_FALSE(DomainName::parse_or_throw("google.com").is_idn());
}

TEST(Ipv4, ParseAndFormat) {
  const auto a = Ipv4::parse("203.0.113.7");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->str(), "203.0.113.7");
  EXPECT_EQ(a->value, 0xCB007107u);
  EXPECT_FALSE(Ipv4::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.256").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").has_value());
}

TEST(Records, TypeNames) {
  EXPECT_EQ(record_type_name(RecordType::kNs), "NS");
  EXPECT_EQ(parse_record_type("MX"), RecordType::kMx);
  EXPECT_FALSE(parse_record_type("BOGUS").has_value());
}

TEST(ZoneFile, ParsesDirectivesAndRecords) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "$TTL 3600\n"
      "google      IN NS ns1.google.com.\n"
      "google      IN A  142.250.1.1\n"
      "mailhost    IN MX 10 mx.mailhost.com.\n");
  EXPECT_EQ(zone.origin.str(), "com");
  EXPECT_EQ(zone.default_ttl, 3600u);
  ASSERT_EQ(zone.records.size(), 3u);
  EXPECT_EQ(zone.records[0].owner.str(), "google.com");
  EXPECT_EQ(zone.records[0].type, RecordType::kNs);
  EXPECT_EQ(zone.records[0].target, "ns1.google.com");
  EXPECT_EQ(zone.records[1].address.str(), "142.250.1.1");
  EXPECT_EQ(zone.records[2].priority, 10);
}

TEST(ZoneFile, RelativeAndAbsoluteNames) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "relative IN NS ns.hoster.net.\n"
      "absolute.org. IN NS ns.other.net.\n"
      "@ IN NS ns.root.net.\n");
  EXPECT_EQ(zone.records[0].owner.str(), "relative.com");
  EXPECT_EQ(zone.records[1].owner.str(), "absolute.org");
  EXPECT_EQ(zone.records[2].owner.str(), "com");
}

TEST(ZoneFile, OwnerContinuation) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "multi IN NS ns1.x.net.\n"
      "      IN NS ns2.x.net.\n");
  ASSERT_EQ(zone.records.size(), 2u);
  EXPECT_EQ(zone.records[1].owner.str(), "multi.com");
}

TEST(ZoneFile, CommentsAndBlankLines) {
  const auto zone = parse_zone(
      "; full comment\n"
      "$ORIGIN com.\n"
      "\n"
      "a IN A 1.2.3.4 ; trailing comment\n");
  EXPECT_EQ(zone.records.size(), 1u);
}

TEST(ZoneFile, PerRecordTtl) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "$TTL 86400\n"
      "a 300 IN A 1.2.3.4\n"
      "b IN 600 A 1.2.3.4\n"
      "c IN A 1.2.3.4\n");
  EXPECT_EQ(zone.records[0].ttl, 300u);
  EXPECT_EQ(zone.records[1].ttl, 600u);
  EXPECT_EQ(zone.records[2].ttl, 86400u);
}

TEST(ZoneFile, ErrorsCarryLineNumbers) {
  try {
    static_cast<void>(
        parse_zone("$ORIGIN com.\nok IN A 1.2.3.4\nbad IN A not-an-ip\n"));
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(ZoneFile, RejectsMalformed) {
  EXPECT_THROW(parse_zone("$ORIGIN\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$TTL abc\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("name IN BOGUS x\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("name IN NS\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("name IN MX 10\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("  IN A 1.2.3.4\n"), ZoneParseError);  // no owner yet
}

TEST(ZoneFile, SerializeParseRoundtrip) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "$TTL 7200\n"
      "google IN NS ns1.google.com.\n"
      "google IN A 142.250.1.1\n"
      "m IN MX 5 mx.m.com.\n");
  const auto text = serialize_zone(zone);
  const auto again = parse_zone(text);
  ASSERT_EQ(again.records.size(), zone.records.size());
  for (std::size_t i = 0; i < zone.records.size(); ++i) {
    EXPECT_EQ(again.records[i].owner, zone.records[i].owner);
    EXPECT_EQ(again.records[i].type, zone.records[i].type);
    EXPECT_EQ(again.records[i].rdata_str(), zone.records[i].rdata_str());
  }
}

TEST(ZoneFile, OwnersDeduplicated) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "a IN NS ns1.x.net.\n"
      "a IN A 1.2.3.4\n"
      "b IN NS ns1.x.net.\n");
  const auto owners = zone.owners();
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(owners[0].str(), "a.com");
}

TEST(ZoneFile, StreamingParser) {
  std::size_t count = 0;
  parse_zone_stream(
      "$ORIGIN com.\n"
      "a IN A 1.2.3.4\n"
      "b IN A 1.2.3.5\n",
      [&](const ResourceRecord&) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(ZoneFile, DirectoryAndFailedReadThrow) {
  // A directory opens like a file, and a read can fail partway; neither
  // may pass for an empty or truncated zone. Both errors name the path.
  const auto expect_named_error = [](const std::string& path) {
    try {
      (void)parse_zone_file(path, [](const ResourceRecord&) {});
      ADD_FAILURE() << path << " parsed as a zone";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(path), std::string::npos) << e.what();
    }
  };
  expect_named_error(test::process_temp_dir());
  // Reading this process's own memory at offset 0 fails (EIO).
  expect_named_error("/proc/self/mem");
}

// --- Range validation (truncation regressions) ------------------------

TEST(ZoneFile, TtlOverflowRejected) {
  // 2^32 used to static_cast down to 0 silently; now it is a parse error.
  EXPECT_THROW(parse_zone("$TTL 4294967296\n"), ZoneParseError);
  EXPECT_EQ(parse_zone("$TTL 4294967295\n").default_ttl, 4294967295u);
  EXPECT_THROW(parse_zone("$ORIGIN com.\na 4294967296 IN A 1.2.3.4\n"),
               ZoneParseError);
  const auto zone = parse_zone("$ORIGIN com.\na 4294967295 IN A 1.2.3.4\n");
  EXPECT_EQ(zone.records[0].ttl, 4294967295u);
  try {
    static_cast<void>(
        parse_zone("$ORIGIN com.\nok IN A 1.2.3.4\n$TTL 99999999999\n"));
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string{e.what()}.find("out of range"), std::string::npos);
  }
}

TEST(ZoneFile, MxPriorityOverflowRejected) {
  // 65536 used to wrap to priority 0 (best preference!) via static_cast.
  EXPECT_THROW(parse_zone("$ORIGIN com.\nm IN MX 65536 mx.m.com.\n"),
               ZoneParseError);
  const auto zone = parse_zone("$ORIGIN com.\nm IN MX 65535 mx.m.com.\n");
  EXPECT_EQ(zone.records[0].priority, 65535u);
}

// --- $ORIGIN semantics ------------------------------------------------

TEST(ZoneFile, MidFileOriginTracked) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "a IN A 1.2.3.4\n"
      "$ORIGIN net.\n"
      "b IN A 1.2.3.5\n"
      "@ IN NS ns.b.net.\n");
  EXPECT_EQ(zone.records[0].owner.str(), "a.com");
  EXPECT_EQ(zone.records[1].owner.str(), "b.net");
  EXPECT_EQ(zone.records[2].owner.str(), "net");
  // Zone carries the origin in effect at end of file, not the first one.
  EXPECT_EQ(zone.origin.str(), "net");

  const auto again = parse_zone(serialize_zone(zone));
  ASSERT_EQ(again.records.size(), zone.records.size());
  for (std::size_t i = 0; i < zone.records.size(); ++i) {
    EXPECT_EQ(again.records[i], zone.records[i]) << "record " << i;
  }
}

TEST(ZoneFile, RootOriginSupported) {
  // "$ORIGIN ." means relative names are already fully qualified.
  const auto zone = parse_zone(
      "$ORIGIN .\n"
      "example.com IN A 1.2.3.4\n"
      "other.net. IN NS ns.other.net.\n");
  ASSERT_EQ(zone.records.size(), 2u);
  EXPECT_EQ(zone.records[0].owner.str(), "example.com");
  EXPECT_EQ(zone.records[1].owner.str(), "other.net");
  EXPECT_EQ(zone.origin.str(), "");  // root tracked as the empty origin

  // The root itself is not a registrable owner.
  EXPECT_THROW(parse_zone("$ORIGIN .\n@ IN A 1.2.3.4\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN .\n. IN A 1.2.3.4\n"), ZoneParseError);

  // Round trip: serialize omits the root $ORIGIN; absolute names survive.
  const auto again = parse_zone(serialize_zone(zone));
  ASSERT_EQ(again.records.size(), zone.records.size());
  for (std::size_t i = 0; i < zone.records.size(); ++i) {
    EXPECT_EQ(again.records[i], zone.records[i]) << "record " << i;
  }
}

// --- Host-name validation ---------------------------------------------

/// Line number of the ZoneParseError `text` raises, or 0 if it parses.
std::size_t error_line(const std::string& text) {
  try {
    static_cast<void>(parse_zone(text));
  } catch (const ZoneParseError& e) {
    return e.line();
  }
  return 0;
}

TEST(ZoneFile, HostNamesValidatedLikeDomainName) {
  // Exactly one trailing dot marks a name absolute, so "foo.." keeps an
  // empty label.
  EXPECT_EQ(error_line("$ORIGIN com.\nok IN A 1.2.3.4\nfoo.. IN A 1.2.3.4\n"), 3u);
  // NS/CNAME/MX targets pass the same rules as owners.
  EXPECT_EQ(error_line("$ORIGIN com.\nok IN A 1.2.3.4\nfoo IN NS ns1..bad..\n"), 3u);
  EXPECT_EQ(error_line("$ORIGIN com.\nfoo IN CNAME -.\n"), 2u);
  EXPECT_EQ(error_line("$ORIGIN com.\nfoo IN MX 10 -.\n"), 2u);

  // Valid targets are resolved against $ORIGIN and lowercased.
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "a IN NS NS1.Hoster.NET.\n"
      "b IN CNAME www\n"
      "c IN MX 5 @\n");
  ASSERT_EQ(zone.records.size(), 3u);
  EXPECT_EQ(zone.records[0].target, "ns1.hoster.net");
  EXPECT_EQ(zone.records[1].target, "www.com");
  EXPECT_EQ(zone.records[2].target, "com");
}

// --- Incremental reader ------------------------------------------------

TEST(ZoneStream, BasicIncrementalUse) {
  std::vector<ResourceRecord> records;
  ZoneStreamReader reader{[&](const ResourceRecord& r) { records.push_back(r); }};
  reader.feed("$ORIGIN co");
  reader.feed("m.\n$TTL 360");
  reader.feed("0\na IN A 1.2.3.4\r\nb IN ");
  reader.feed("A 1.2.3.5");  // trailing line without newline
  EXPECT_EQ(reader.finish(), 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].owner.str(), "a.com");
  EXPECT_EQ(records[1].owner.str(), "b.com");
  EXPECT_EQ(records[0].ttl, 3600u);
  EXPECT_EQ(reader.origin(), "com");
  EXPECT_TRUE(reader.origin_seen());
  EXPECT_EQ(reader.default_ttl(), 3600u);
  EXPECT_EQ(reader.lines(), 4u);
}

TEST(ZoneStream, LifecycleEnforced) {
  ZoneStreamReader reader{[](const ResourceRecord&) {}};
  reader.feed("$ORIGIN com.\n");
  reader.finish();
  EXPECT_THROW(reader.feed("a IN A 1.2.3.4\n"), std::logic_error);
  EXPECT_THROW(reader.finish(), std::logic_error);
}

TEST(ZoneStream, ErrorLineNumberSpansChunks) {
  ZoneStreamReader reader{[](const ResourceRecord&) {}};
  reader.feed("$ORIGIN com.\nok IN A 1.2.3.4\n");
  try {
    reader.feed("bad IN A not");
    reader.feed("-an-ip\n");
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);  // absolute line number across feeds
  }
}

TEST(ZoneStream, ClassifyMatchesTheParser) {
  using Kind = ZoneLineKind;
  const auto kind = ZoneStreamReader::classify;
  EXPECT_EQ(kind("$ORIGIN com."), Kind::kDirective);
  EXPECT_EQ(kind("  $TTL 300\r"), Kind::kDirective);  // indented still counts
  EXPECT_EQ(kind("\t$ORIGIN net. ; moved"), Kind::kDirective);
  EXPECT_EQ(kind("; $ORIGIN com."), Kind::kEmpty);
  EXPECT_EQ(kind("   "), Kind::kEmpty);
  EXPECT_EQ(kind("\r"), Kind::kEmpty);
  EXPECT_EQ(kind(""), Kind::kEmpty);
  EXPECT_EQ(kind("$ORIGINS com."), Kind::kOwner);  // not a directive token
  EXPECT_EQ(kind("foo IN A 1.2.3.4 ; $TTL 5"), Kind::kOwner);
  EXPECT_EQ(kind("  IN A 1.2.3.4"), Kind::kContinuation);
  EXPECT_EQ(kind("\tIN NS ns1.x.net."), Kind::kContinuation);
  // Only a space or a tab makes a continuation line; other whitespace
  // before the owner is skipped.
  EXPECT_EQ(kind("\vfoo IN A 1.2.3.4"), Kind::kOwner);
  // Across the tokenizer's 64-byte windows: indentation and comments that
  // reach past bytes 63 and 127, '\f' and '\v' indentation, a mid-line
  // '\r', a 63-octet owner label, and a directive of more than 8 tokens.
  EXPECT_EQ(kind(std::string(70, ' ') + "$TTL 300"), Kind::kDirective);
  EXPECT_EQ(kind(std::string(64, '\t') + "; $ORIGIN com."), Kind::kEmpty);
  EXPECT_EQ(kind(std::string(127, ' ') + ";"), Kind::kEmpty);
  EXPECT_EQ(kind(std::string(128, ' ') + "x"), Kind::kContinuation);
  EXPECT_EQ(kind("\f$ORIGIN com."), Kind::kDirective);
  EXPECT_EQ(kind("\v\f\r\v"), Kind::kEmpty);
  EXPECT_EQ(kind("a\rIN A 1.2.3.4"), Kind::kOwner);
  EXPECT_EQ(kind(std::string(63, 'a') + " IN A 1.2.3.4"), Kind::kOwner);
  EXPECT_EQ(kind("$TTL 1 2 3 4 5 6 7 8 9"), Kind::kDirective);

  // The parser agrees: the directive changes the origin, the continuation
  // inherits the previous owner, the '\v' line names its own.
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "a IN A 1.2.3.4\n"
      "  $ORIGIN net.\n"
      "\tIN A 1.2.3.5\n"
      "\vb IN A 1.2.3.6\n");
  ASSERT_EQ(zone.records.size(), 3u);
  EXPECT_EQ(zone.records[1].owner.str(), "a.com");
  EXPECT_EQ(zone.records[2].owner.str(), "b.net");

  // A directive indented past the first window still applies, and one with
  // more tokens than the tokenizer keeps is still rejected.
  const auto indented = parse_zone(std::string(70, ' ') + "$ORIGIN net.\nb IN A 1.2.3.4\n");
  ASSERT_EQ(indented.records.size(), 1u);
  EXPECT_EQ(indented.records[0].owner.str(), "b.net");
  try {
    static_cast<void>(parse_zone("$ORIGIN com.\n$TTL 1 2 3 4 5 6 7 8 9\n"));
    ADD_FAILURE() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.message(), "$TTL needs a value");
  }
}

// A reader started from the state() a sequential parse has at a line
// boundary parses the rest exactly as that parse does: the same records,
// the same final state, and lines counted from the boundary.
TEST(ZoneStream, StartStateResumesAtEveryLine) {
  const std::string text =
      "; header\r\n"
      "$ORIGIN com.\n"
      "$TTL 7200\r\n"
      "google IN NS ns1.google.com.\r\n"
      "       IN NS ns2.google.com.\n"
      "GOOGLE.COM. IN A 142.250.1.1\n"
      "  $ORIGIN net.\n"
      "\tIN A 1.2.3.4 ; still google.com\n"
      "\n"
      "b IN A 1.2.3.5\n"
      "\t$TTL 60\n"
      "  IN AAAA ::1\n"
      "tail IN A 9.9.9.9";
  std::vector<ResourceRecord> expected;
  ZoneStreamReader whole{[&](const ResourceRecord& r) { expected.push_back(r); }};
  whole.feed(text);
  whole.finish();
  ASSERT_EQ(expected.size(), 7u);
  const auto final_state = whole.state();
  EXPECT_EQ(final_state.owner, "tail.net");
  EXPECT_EQ(final_state.default_ttl, 60u);

  for (std::size_t at = 0; at < text.size(); at = text.find('\n', at) + 1) {
    std::vector<ResourceRecord> records;
    ZoneStreamReader head{[&](const ResourceRecord& r) { records.push_back(r); }};
    head.feed(std::string_view{text}.substr(0, at));
    ZoneStreamReader rest{[&](const ResourceRecord& r) { records.push_back(r); },
                          head.state()};
    rest.feed(std::string_view{text}.substr(at));
    rest.finish();
    EXPECT_EQ(records, expected) << "cut at byte " << at;
    EXPECT_EQ(rest.state(), final_state) << "cut at byte " << at;
    EXPECT_EQ(head.lines() + rest.lines(), whole.lines()) << "cut at byte " << at;
    if (text.find('\n', at) == std::string::npos) break;
  }
}

TEST(ZoneStream, StartStateLinesCountFromTheBoundary) {
  ZoneStreamReader reader{[](const ResourceRecord&) {},
                          {.origin = "com", .origin_seen = true, .owner = "a.com"}};
  try {
    reader.feed("  IN A 1.2.3.4\nbad IN A nope\n");
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.message(), "bad IPv4 address");
  }
  EXPECT_THROW((ZoneStreamReader{[](const ResourceRecord&) {}, {.owner = "a..b"}}),
               std::invalid_argument);
}

// The reader parses every line into one reused record, so each field must
// be set afresh. ZoneChunkProperty cannot catch a leftover: it compares the
// reader with parse_zone, which runs the same reader. Hence literal values.
TEST(ZoneStream, ReusedRecordFieldsReset) {
  std::vector<ResourceRecord> records;
  ZoneStreamReader reader{[&](const ResourceRecord& r) { records.push_back(r); }};
  reader.feed(
      "$ORIGIN com.\n"
      "$TTL 3600\n"
      "m 300 IN MX 10 mx.m.com.\n"
      "a IN A 1.2.3.4\n"
      "b IN MX 20 mx.b.com.\n"
      "n IN NS ns1.n.net.\n"
      "  IN A 5.6.7.8\n"
      "x IN MX 30 mx.x.com.\n");
  reader.finish();
  ASSERT_EQ(records.size(), 6u);

  EXPECT_EQ(records[0].ttl, 300u);
  EXPECT_EQ(records[0].priority, 10u);

  // An A after an MX, and after an explicit-TTL line.
  EXPECT_EQ(records[1].owner.str(), "a.com");
  EXPECT_EQ(records[1].type, RecordType::kA);
  EXPECT_EQ(records[1].ttl, 3600u);
  EXPECT_EQ(records[1].target, "");
  EXPECT_EQ(records[1].priority, 0u);
  EXPECT_EQ(records[1].address.value, 0x01020304u);

  // An NS after an MX.
  EXPECT_EQ(records[3].owner.str(), "n.com");
  EXPECT_EQ(records[3].type, RecordType::kNs);
  EXPECT_EQ(records[3].target, "ns1.n.net");
  EXPECT_EQ(records[3].priority, 0u);
  EXPECT_EQ(records[3].address.value, 0u);

  // A continuation line keeps the previous owner.
  EXPECT_EQ(records[4].owner.str(), "n.com");
  EXPECT_EQ(records[4].type, RecordType::kA);
  EXPECT_EQ(records[4].target, "");
  EXPECT_EQ(records[4].address.value, 0x05060708u);

  // An MX after an A.
  EXPECT_EQ(records[5].owner.str(), "x.com");
  EXPECT_EQ(records[5].address.value, 0u);
  EXPECT_EQ(records[5].priority, 30u);
  EXPECT_EQ(records[5].ttl, 3600u);
}

// After warm-up, the per-record path makes no heap allocation at all,
// whatever the chunking: lines land in the reused record, and a line split
// across chunks lands in a pending buffer that has already grown.
TEST(ZoneStream, SteadyStateAllocatesNothing) {
  util::Rng rng{4096};
  std::string body;
  for (int i = 0; i < 4000; ++i) {
    // Some owners outgrow the small-string buffer.
    const std::string name = "host-" + std::to_string(rng.below(1'000'000)) +
                             (i % 5 == 0 ? "-with-a-long-registered-label" : "");
    switch (i % 4) {
      case 0:
        body += name + ".com. 86400 IN NS ns1.hosting-" + std::to_string(i) + ".net.\n";
        break;
      case 1:
        body += name + " IN A 203.0.113." + std::to_string(i % 256) + "\r\n";
        break;
      case 2:
        body += name + " 300 IN MX 10 mx." + name + " ; mail\n";
        break;
      default:
        body += "    IN NS NS2.Example.NET.\n";
        break;
    }
  }
  std::vector<std::size_t> chunks;
  for (std::size_t fed = 0; fed < body.size();) {
    chunks.push_back(static_cast<std::size_t>(1 + rng.below(200)));
    fed += chunks.back();
  }

  std::size_t records = 0;
  ZoneStreamReader reader{[&](const ResourceRecord&) { ++records; }};
  reader.feed("$ORIGIN com.\n$TTL 3600\n");
  // Warm-up: the same lines one byte at a time, so the pending-line buffer
  // has held the longest line and the record the longest names.
  for (const char c : body) reader.feed(std::string_view{&c, 1});
  const std::size_t warm = records;
  ASSERT_EQ(warm, 4000u);

  std::string_view rest = body;
  g_allocations = 0;
  g_count_allocations = true;
  for (const auto size : chunks) {
    const auto take = std::min(size, rest.size());
    reader.feed(rest.substr(0, take));
    rest.remove_prefix(take);
  }
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(records, 2 * warm);
  reader.finish();
}

/// `head` padded with spaces to `column` bytes, then `tail`.
std::string at_column(std::string head, std::size_t column, std::string_view tail) {
  head.resize(std::max(head.size(), column), ' ');
  return head + std::string{tail};
}

/// Zone lines (65-200 bytes) that put a token, a whitespace run and a ';'
/// across bytes 63/64 and 127/128, where the tokenizer's 64-byte windows
/// meet; lines of exactly 64 and 128 bytes whose last token ends the line;
/// '\v', '\f' and mid-line '\r' separators; indentation longer than a
/// window; and owners whose first label is exactly 63 octets.
std::string window_boundary_zone() {
  std::string text = "$ORIGIN com.\n$TTL 3600\n";
  const auto line = [&](const std::string& body) { text += body + "\n"; };
  line(std::string(63, 'a') + " IN NS NS1.Hoster.NET.");           // space at 63
  line(std::string(60, 'b') + ".com. 300 IN NS ns1.hoster.net.");  // token 0-64
  line(at_column(at_column("c", 71, "IN"), 140, "A 192.0.2.1"));  // runs 1-70, 73-139
  line(at_column("d IN A 192.0.2.2", 63, "; comment from byte 63"));
  line(at_column("e IN A 192.0.2.3", 64, ";from 64"));
  line(at_column("f IN A 192.0.2.4", 127, ";"));
  line(at_column("g IN TXT v=spf1", 128, "; from 128"));
  line(at_column("h IN NS", 120, "ns1.straddle-the-window.net."));  // token 120-147
  line(at_column("i IN TXT", 60, "abc;def"));                       // ';' at 63
  line(at_column("j IN NS", 45, "ns1.exactly-64.net."));            // 64 bytes
  line(at_column("k IN NS", 109, "ns.line-of-128.net."));           // 128 bytes
  line(at_column("l IN A", 55, "192.0.2.5") + "\r");                // CR is byte 64
  line("m\vIN\fA\r192.0.2.6");
  line(std::string(66, ' ') + "IN A 192.0.2.7");
  line("\t" + std::string(70, '\v') + "IN A 192.0.2.8 ; \f\r");
  line(at_column(std::string(65, '\t') + "$ORIGIN net.", 130, "; moved"));
  line(std::string(63, 'n') + "\f300\vIN\tNS\r" + std::string(63, 'z') + ".");
  line(at_column(at_column("o IN MX", 90, "10"), 180, "mx.o.net."));  // 189 bytes
  return text;
}

// Property: a stream cut into random chunks (1 byte up to the whole file)
// yields the exact record sequence of a one-shot parse. The first input
// covers CRLF endings, comments, owner-continuation lines, mid-file
// directives, and a trailing unterminated line — everything that can
// straddle a chunk boundary. The second puts every line's bytes across the
// tokenizer's windows: 1-byte feeds read each line from a space-padded
// copy, a one-shot parse mostly in place, so the two paths are pinned
// against each other.
class ZoneChunkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZoneChunkProperty, ChunkingInvariant) {
  const std::string text =
      "; registry feed header\r\n"
      "$ORIGIN com.\n"
      "$TTL 7200\r\n"
      "google IN NS ns1.google.com. ; delegations\r\n"
      "       IN NS ns2.google.com.\n"
      "xn--ggle-55da 300 IN A 142.250.1.1\r\n"
      "mail IN MX 10 mx.mail.com.\n"
      "$ORIGIN net.\r\n"
      "\r\n"
      "b IN A 1.2.3.5 ; comment\n"
      "  IN AAAA ::1\n"
      "@ IN NS ns.b.net.\r\n"
      "tail IN A 9.9.9.9";  // no trailing newline

  const auto expected = parse_zone(text);
  ASSERT_EQ(expected.records.size(), 8u);

  // The boundary zone parses to literal values: the chunked passes below
  // compare the reader with itself.
  const std::string boundary_text = window_boundary_zone();
  const auto boundary = parse_zone(boundary_text);
  ASSERT_EQ(boundary.records.size(), 17u);
  const auto& b = boundary.records;
  EXPECT_EQ(b[0].owner.str(), std::string(63, 'a') + ".com");
  EXPECT_EQ(b[0].target, "ns1.hoster.net");
  EXPECT_EQ(b[1].owner.str(), std::string(60, 'b') + ".com");
  EXPECT_EQ(b[1].ttl, 300u);
  EXPECT_EQ(b[2].address.str(), "192.0.2.1");
  EXPECT_EQ(b[3].address.str(), "192.0.2.2");
  EXPECT_EQ(b[4].address.str(), "192.0.2.3");
  EXPECT_EQ(b[5].address.str(), "192.0.2.4");
  EXPECT_EQ(b[6].target, "v=spf1");
  EXPECT_EQ(b[7].target, "ns1.straddle-the-window.net");
  EXPECT_EQ(b[8].target, "abc");
  EXPECT_EQ(b[9].target, "ns1.exactly-64.net");
  EXPECT_EQ(b[10].target, "ns.line-of-128.net");
  EXPECT_EQ(b[11].address.str(), "192.0.2.5");
  EXPECT_EQ(b[12].owner.str(), "m.com");
  EXPECT_EQ(b[12].address.str(), "192.0.2.6");
  EXPECT_EQ(b[13].owner.str(), "m.com");
  EXPECT_EQ(b[14].owner.str(), "m.com");
  EXPECT_EQ(b[14].address.str(), "192.0.2.8");
  EXPECT_EQ(b[15].owner.str(), std::string(63, 'n') + ".net");
  EXPECT_EQ(b[15].ttl, 300u);
  EXPECT_EQ(b[15].target, std::string(63, 'z'));
  EXPECT_EQ(b[16].owner.str(), "o.net");
  EXPECT_EQ(b[16].priority, 10u);
  EXPECT_EQ(b[16].target, "mx.o.net");

  util::Rng rng{GetParam()};
  const auto expect_chunking_invariant = [&](std::string_view text,
                                             const Zone& expected) {
    // Round -1 feeds single bytes; the others cut at random.
    for (int round = -1; round < 64; ++round) {
      std::vector<ResourceRecord> records;
      ZoneStreamReader reader{
          [&](const ResourceRecord& r) { records.push_back(r); }};
      std::string_view rest = text;
      while (!rest.empty()) {
        const auto take =
            round < 0 ? 1 : static_cast<std::size_t>(1 + rng.below(rest.size()));
        reader.feed(rest.substr(0, take));
        rest.remove_prefix(take);
      }
      reader.finish();

      ASSERT_EQ(records.size(), expected.records.size()) << "round " << round;
      for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i], expected.records[i])
            << "round " << round << " record " << i;
      }
      EXPECT_EQ(reader.origin(), expected.origin.str());
      EXPECT_EQ(reader.default_ttl(), expected.default_ttl);
    }
  };
  expect_chunking_invariant(text, expected);
  expect_chunking_invariant(boundary_text, boundary);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneChunkProperty,
                         ::testing::Values(1u, 77u, 515u, 8191u, 20260808u));

// --- Oracles for the one-pass line scan -------------------------------

/// The tokenizer before the mask scan, one byte at a time: drop a trailing
/// CR, cut at the first ';', split on "C"-locale whitespace.
std::size_t reference_split_tokens(std::string_view line, detail::Tokens& out) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
  };
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (const auto semi = line.find(';'); semi != std::string_view::npos) {
    line = line.substr(0, semi);
  }
  std::size_t count = 0;
  std::size_t i = 0;
  while (count < detail::kMaxTokens) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    out[count++] = line.substr(start, i - start);
  }
  return count;
}

// Property: the mask tokenizer returns the byte loop's tokens, at the same
// addresses, on random lines of 0-300 bytes followed by 0-70 more readable
// bytes. Each line and its slack fill an exact-size heap block, so
// AddressSanitizer reports a window loaded past the readable bytes.
TEST(TokenizerProperty, MatchesByteLoopOracle) {
  const std::string spaces = " \t\n\v\f\r";
  std::string others = "$.-_";
  for (char c = 'A'; c <= 'Z'; ++c) others += c;
  for (int c = 0x80; c <= 0xFF; ++c) others += static_cast<char>(c);
  util::Rng rng{2026};
  for (int trial = 0; trial < 20000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.below(301));
    const auto slack = static_cast<std::size_t>(rng.below(71));
    // Per line, from no separators to mostly separators, and from no ';'
    // to a few.
    const auto space_pct = rng.below(80);
    const auto semicolon_pct = rng.below(3);
    std::vector<char> bytes(size + slack);
    for (char& c : bytes) {
      const auto roll = rng.below(100);
      c = roll < semicolon_pct             ? ';'
          : roll < semicolon_pct + space_pct ? spaces[rng.below(spaces.size())]
                                             : others[rng.below(others.size())];
    }
    const std::string_view line{bytes.data(), size};
    detail::Tokens want;
    detail::Tokens got;
    const std::size_t count = reference_split_tokens(line, want);
    ASSERT_EQ(detail::split_tokens(line, size + slack, got), count) << "trial " << trial;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got[i].data(), want[i].data()) << "trial " << trial << " token " << i;
      EXPECT_EQ(got[i].size(), want[i].size()) << "trial " << trial << " token " << i;
    }
  }
}

/// Each byte value at each window position, in a window of 'x'.
template <typename Check>
void for_each_byte_at_each_position(Check check) {
  for (int byte = 0; byte < 256; ++byte) {
    for (std::size_t at = 0; at < 64; ++at) {
      char window[64];
      std::fill(std::begin(window), std::end(window), 'x');
      window[at] = static_cast<char>(byte);
      check(window, static_cast<unsigned char>(byte), at);
    }
  }
}

// The table builder is the "C" locale's isspace plus ';', bit for bit.
TEST(WindowMaskProperty, TableMatchesIsspace) {
  for_each_byte_at_each_position([](const char* window, unsigned char byte, std::size_t at) {
    const auto masks = detail::window_masks_table(window);
    const std::uint64_t bit = std::uint64_t{1} << at;
    EXPECT_EQ(masks.space, std::isspace(byte) != 0 ? bit : 0) << int{byte} << " at " << at;
    EXPECT_EQ(masks.semicolon, byte == ';' ? bit : 0) << int{byte} << " at " << at;
  });
}

#if defined(__SSE2__)
// Property: the SSE2 builder equals the table builder on every byte at
// every position, and on random unaligned windows drawn from all bytes and
// from the bytes next to the biased compare's range.
TEST(WindowMaskProperty, Sse2MatchesTable) {
  for_each_byte_at_each_position([](const char* window, unsigned char byte, std::size_t at) {
    EXPECT_EQ(detail::window_masks_sse2(window), detail::window_masks_table(window))
        << int{byte} << " at " << at;
  });
  const std::string near = " \t\n\v\f\r;\x08\x0e\x1f!:<\x80\x88\x89\x8d\x8e\xff";
  util::Rng rng{64};
  for (int trial = 0; trial < 20000; ++trial) {
    char buffer[64 + 15];
    for (char& c : buffer) {
      c = trial % 2 == 0 ? static_cast<char>(rng.below(256)) : near[rng.below(near.size())];
    }
    const char* window = buffer + rng.below(16);
    ASSERT_EQ(detail::window_masks_sse2(window), detail::window_masks_table(window))
        << "trial " << trial;
  }
}
#endif

/// DomainName::normalize before the table: join, then lowercase and check
/// in place, one octet at a time.
bool reference_normalize(std::string& out, std::string_view name, std::string_view origin) {
  out.assign(name);
  if (!origin.empty()) {
    out += '.';
    out += origin;
  }
  const std::size_t size = out.size();
  if (size == 0 || size > 253) return false;
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

/// `size` octets of 63-octet labels: a '.' at every 64th position.
std::string name_of_size(std::size_t size) {
  std::string name(size, 'A');
  for (std::size_t i = 63; i < size; i += 64) name[i] = '.';
  return name;
}

/// A valid name of `size` <= 95 octets: mixed-case letters, with a '.' at
/// octet 31 when the name runs past it.
std::string letters_of_size(std::size_t size) {
  std::string name(size, 'a');
  for (std::size_t i = 0; i < size; ++i) {
    name[i] = static_cast<char>((i % 3 == 0 ? 'A' : 'a') + i % 26);
  }
  if (size > 32) name[31] = '.';
  return name;
}

// Property: normalize() agrees with the byte loop, in its result and in the
// name it writes, with and without an origin: on random names, at the
// 63/64-octet label limit, at the 253/254-octet name limit, with every byte
// at every octet of 1-70-octet names, and with dots, hyphens and
// underscores on each side of every pair of adjacent octets, which covers
// the 16-byte block edges (15|16, 31|32, 47|48) and the overlap of the last
// two blocks. Each part is copied into an exact-size heap block, so
// AddressSanitizer reports a block loaded past either part.
TEST(NormalizeProperty, MatchesByteLoopOracle) {
  const std::vector<std::string> origins = {
      "", "com", "Ex-Ample.NET", "a.b.c", "-bad", "trailing.", std::string(63, 'o'),
      std::string(64, 'o')};
  std::size_t valid = 0;
  const auto compare = [&](std::string_view name, std::string_view origin) {
    const std::vector<char> name_block(name.begin(), name.end());
    const std::vector<char> origin_block(origin.begin(), origin.end());
    name = {name_block.data(), name_block.size()};
    origin = {origin_block.data(), origin_block.size()};
    std::string want;
    std::string got = "stale";
    const bool ok = reference_normalize(want, name, origin);
    ASSERT_EQ(DomainName::normalize(got, name, origin), ok)
        << "'" << name << "' + '" << origin << "'";
    if (ok) {
      EXPECT_EQ(got, want) << "'" << name << "' + '" << origin << "'";
      ++valid;
    }
  };
  const auto expect_same = [&](std::string_view name) {
    for (const auto& origin : origins) compare(name, origin);
  };
  // `part` as the name, without and with an origin, and as the origin.
  const auto expect_same_as_each_part = [&](std::string_view part) {
    compare(part, "");
    compare(part, "Ex-Ample.NET");
    compare("www", part);
  };
  for (const std::size_t label : {1, 15, 16, 17, 62, 63, 64, 65}) {
    expect_same(std::string(label, 'a'));
    expect_same(std::string(label, 'a') + ".com");
    expect_same("x." + std::string(label, 'B'));
    expect_same("-" + std::string(label, 'c'));
    expect_same(std::string(label, 'c') + "-");
  }
  for (std::size_t size = 186; size <= 256; ++size) expect_same(name_of_size(size));
  for (const std::string_view edge : {"", ".", "..", "a.", ".a", "a..b", "-", "_", "a-b"}) {
    expect_same(edge);
  }

  for (std::size_t size = 1; size <= 70; ++size) {
    const std::string base = letters_of_size(size);
    for (std::size_t at = 0; at < size; ++at) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string name = base;
        name[at] = static_cast<char>(byte);
        expect_same_as_each_part(name);
      }
    }
    const std::string_view marks = ".-_a";
    for (std::size_t at = 0; at + 1 < size; ++at) {
      for (const char left : marks) {
        for (const char right : marks) {
          std::string name = base;
          name[at] = left;
          name[at + 1] = right;
          expect_same_as_each_part(name);
        }
      }
    }
  }

  const std::string alphabet = "abcXYZ09-_..-";
  const std::string invalid = std::string{" @*/[`{:,^\x80\xff"} + '\0';
  util::Rng rng{253};
  for (int trial = 0; trial < 20000; ++trial) {
    std::string name;
    if (trial % 2 == 0) {
      // Labels of 0-66 octets.
      const auto labels = 1 + rng.below(5);
      for (std::uint64_t l = 0; l < labels; ++l) {
        if (l != 0) name += '.';
        const auto length = rng.below(67);
        for (std::uint64_t i = 0; i < length; ++i) name += alphabet[rng.below(alphabet.size() - 3)];
      }
    } else {
      const auto length = rng.below(271);
      for (std::uint64_t i = 0; i < length; ++i) name += alphabet[rng.below(alphabet.size())];
    }
    if (rng.below(8) == 0 && !name.empty()) {
      name[rng.below(name.size())] = invalid[rng.below(invalid.size())];
    }
    expect_same(name);
  }
  EXPECT_GT(valid, 10000u);  // the comparison covers accepted names, not just rejections
}

// --- Language identification -----------------------------------------

TEST(LangId, ScriptBasedLanguages) {
  using unicode::U32String;
  EXPECT_EQ(classify_language(U32String{0x4E2D, 0x6587}), Language::kChinese);
  EXPECT_EQ(classify_language(U32String{0xD55C, 0xAD6D}), Language::kKorean);
  EXPECT_EQ(classify_language(U32String{0x3042, 0x308A}), Language::kJapanese);
  // Kanji + kana is Japanese even though kanji alone is Chinese.
  EXPECT_EQ(classify_language(U32String{0x65E5, 0x672C, 0x3054}), Language::kJapanese);
  EXPECT_EQ(classify_language(U32String{0x043C, 0x0438, 0x0440}), Language::kRussian);
  EXPECT_EQ(classify_language(U32String{0x0627, 0x0644}), Language::kArabic);
  EXPECT_EQ(classify_language(U32String{0x0E44, 0x0E17}), Language::kThai);
  EXPECT_EQ(classify_language(U32String{0x03B1, 0x03B2}), Language::kGreek);
  EXPECT_EQ(classify_language(U32String{0x05D0, 0x05D1}), Language::kHebrew);
}

TEST(LangId, LatinLanguagesByDiacritics) {
  using unicode::U32String;
  EXPECT_EQ(classify_language(U32String{'m', 0x00FC, 'n', 'c', 'h', 'e', 'n'}),
            Language::kGerman);
  EXPECT_EQ(classify_language(U32String{'d', 0x00F6, 'v', 'i', 'z'}),
            Language::kGerman);  // ö alone reads as German class
  EXPECT_EQ(classify_language(U32String{'y', 'a', 'z', 0x0131}), Language::kTurkish);
  EXPECT_EQ(classify_language(U32String{'c', 'a', 'f', 0x00E9}), Language::kFrench);
  EXPECT_EQ(classify_language(U32String{'e', 's', 'p', 'a', 0x00F1, 'a'}),
            Language::kSpanish);
  EXPECT_EQ(classify_language(U32String{'p', 'e', 'r', 0x00FA}), Language::kSpanish);
}

TEST(LangId, AsciiIsEnglish) {
  using unicode::U32String;
  EXPECT_EQ(classify_language(U32String{'p', 'l', 'a', 'i', 'n'}),
            Language::kEnglishAscii);
}

TEST(LangId, Names) {
  EXPECT_EQ(language_name(Language::kChinese), "Chinese");
  EXPECT_EQ(language_name(Language::kTurkish), "Turkish");
}

}  // namespace
}  // namespace sham::dns
