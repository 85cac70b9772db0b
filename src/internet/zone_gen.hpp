// Streaming zone generator: synthesizes registry master-file text
// chunk-by-chunk directly from ScenarioCore state — never materializing a
// Scenario or a dns::Zone — byte-identical to
//
//   dns::serialize_zone(scenario_to_zone(generate_scenario(db, config),
//                                        which, tld))
//
// for the same config/seed/which/TLD (proven by tests/test_zone_gen.cpp).
// Memory is bounded by the core's head (references + attacks + funnel
// world, all independent of total_domains) plus one chunk buffer, so the
// synthetic population can be pushed toward the paper's 141 M-domain
// magnitude without the O(N) Scenario working set. Chunks may be fed
// straight into dns::ZoneStreamReader, which accepts any split points.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "homoglyph/homoglyph_db.hpp"
#include "internet/scenario_core.hpp"

namespace sham::internet {

struct ZoneGenOptions {
  /// Source list, as in scenario_to_zone: 0 = registry zone file,
  /// 1 = domainlists, 2 = union.
  int which = 0;
  /// Emitted TLD; SLD labels (the part Algorithm 1 compares) stay the
  /// scenario's .com-shaped ones, as in scenario_to_zone.
  std::string tld = "com";
  /// Target chunk size: next_chunk returns once the chunk reaches this
  /// many bytes (it may overshoot by one domain's records).
  std::size_t chunk_bytes = 256 * 1024;
};

struct ZoneGenStats {
  std::size_t domains_considered = 0;  // population indices enumerated
  std::size_t domains_emitted = 0;     // members of the selected source
  std::size_t records = 0;             // master-file record lines written
  std::size_t bytes = 0;               // chunk bytes produced (incl. header)
};

class ZoneTextStream {
 public:
  /// Builds the bounded core up front (references, attacks, funnel
  /// world); per-domain text is generated lazily by next_chunk. Throws
  /// like generate_scenario/scenario_to_zone on invalid config/which/tld.
  ZoneTextStream(const homoglyph::HomoglyphDb& db, const ScenarioConfig& config,
                 ZoneGenOptions options = {});

  /// Streams only population indexes [first, last) (last is clamped to the
  /// population) of a core built once and shared read-only, so streams
  /// over disjoint ranges can run on different threads. Only the stream
  /// that starts at index 0 emits the header: the streams of a partition
  /// of the population, concatenated in order, are the whole zone's text.
  ZoneTextStream(std::shared_ptr<const ScenarioCore> core, ZoneGenOptions options,
                 std::size_t first, std::size_t last);

  /// Fill `out` with the next chunk of master-file text (the first chunk
  /// starts with the $ORIGIN/$TTL header). Returns false when the zone is
  /// exhausted, leaving `out` empty.
  bool next_chunk(std::string& out);

  [[nodiscard]] const ScenarioCore& core() const noexcept { return *core_; }
  [[nodiscard]] const ZoneGenStats& stats() const noexcept { return stats_; }
  /// Population indices this stream enumerates (membership then filters
  /// them down to the selected source list).
  [[nodiscard]] std::size_t population() const noexcept { return end_ - first_; }

 private:
  void append_domain(std::size_t index, std::string& out);

  std::shared_ptr<const ScenarioCore> core_;
  ZoneGenOptions options_;
  ZoneGenStats stats_;
  std::string header_;                         // pending $ORIGIN/$TTL text
  std::vector<dns::ResourceRecord> scratch_;   // per-domain record buffer
  std::size_t first_ = 0;                      // first population index
  std::size_t cursor_ = 0;                     // next population index
  std::size_t end_ = 0;                        // one past the last index
};

/// One-shot convenience: concatenate every chunk (materializes the text —
/// for tests and small zones only).
[[nodiscard]] std::string generate_zone_text(const homoglyph::HomoglyphDb& db,
                                             const ScenarioConfig& config,
                                             const ZoneGenOptions& options = {});

}  // namespace sham::internet
