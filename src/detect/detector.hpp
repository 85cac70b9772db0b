// IDN homograph detection (Section 3.1, Algorithm 1 and Figure 2).
//
// Given a reference list of popular domain names and the registered IDNs
// of a TLD (both with the TLD part removed), mark an IDN as a homograph of
// a reference name when the two strings have equal length and every
// character position either matches exactly or is a pair in the homoglyph
// database. Unlike image- or OCR-based approaches, the output pinpoints
// the differential characters, enabling the countermeasure UI of
// Section 7.2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "homoglyph/homoglyph_db.hpp"
#include "unicode/codepoint.hpp"

namespace sham::detect {

/// One registered IDN, in both wire (ACE) and decoded forms, TLD removed.
struct IdnEntry {
  std::string ace;                 // e.g. "xn--ggle-0nda"
  unicode::U32String unicode;      // decoded U-label sequence
};

/// A character position where the IDN differs from the reference.
struct DiffChar {
  std::size_t index = 0;
  unicode::CodePoint idn_char = 0;
  unicode::CodePoint ref_char = 0;
  homoglyph::Source source = homoglyph::Source::kUc;

  friend bool operator==(const DiffChar&, const DiffChar&) = default;
};

struct Match {
  std::size_t reference_index = 0;  // into the reference list
  std::size_t idn_index = 0;        // into the IDN list
  std::vector<DiffChar> diffs;      // nonempty (all-equal strings are not IDNs)

  friend bool operator==(const Match&, const Match&) = default;
};

/// Run metrics, well-defined under both serial and parallel execution:
/// counters (`length_bucket_hits`, `char_comparisons`) are accumulated
/// per shard and summed at merge time, so their totals are independent of
/// the shard count; every `*_seconds` field is wall-clock time of the
/// stage named (never a sum over shards), so under parallel execution
/// match_seconds shrinks with thread count while the counters do not move.
struct DetectionStats {
  /// Schema version of the to_json() serialization. Bump whenever a field
  /// is renamed, removed, or changes meaning (adding fields is
  /// backward-compatible and does not require a bump). Consumers — the CLI
  /// `check --stats-json`, the serve stats endpoint, and the BENCH_*.json
  /// artifacts — key on this to stay in sync.
  /// Version 2 removed index_build_seconds along with the length index it
  /// timed.
  static constexpr std::uint32_t kSchemaVersion = 2;

  std::uint64_t length_bucket_hits = 0;  // candidate (ref, IDN) pairs examined
  std::uint64_t char_comparisons = 0;
  double seconds = 0.0;                  // wall clock for the whole run

  // Per-stage breakdown, filled by detect::Engine (zero when the run had
  // no such stage, e.g. no merge on a single-shard run).
  double match_seconds = 0.0;  // streamed-side scan (all shards, wall clock)
  double merge_seconds = 0.0;  // deterministic shard merge
  std::size_t threads_used = 1;
  std::size_t shards_used = 1;
  /// Candidate pairs examined by each shard, in shard (= streamed-side
  /// range) order; sums to length_bucket_hits. Size shards_used for
  /// engine runs.
  std::vector<std::uint64_t> shard_candidates;

  // Skeleton-index observability (Strategy::kSkeleton only; zero/empty
  // under kSerial). Under kSkeleton, length_bucket_hits counts
  // bucket-probe candidates (== skeleton_candidates), so the counters
  // above keep their "candidates examined" meaning across strategies.
  double skeleton_build_seconds = 0.0;    // skeleton-index construction
  std::uint64_t skeleton_candidates = 0;  // bucket-probe candidate pairs
  std::uint64_t skeleton_rejected = 0;    // candidates killed by exact verify
  std::size_t skeleton_buckets = 0;       // distinct skeleton-hash buckets
  /// Bucket-occupancy histogram: slot i = buckets holding i+1 IDNs, last
  /// slot aggregates the tail (see SkeletonIndex::occupancy_histogram).
  std::vector<std::uint64_t> skeleton_bucket_histogram;

  // Engine cache observability (zero under Strategy::kSerial and for
  // engines constructed with EngineOptions::cache = false).
  std::uint64_t index_cache_hits = 0;      // index reused as-is (build skipped)
  std::uint64_t index_cache_rebuilds = 0;  // index built from scratch this call
  std::uint64_t index_cache_updates = 0;   // index patched incrementally
  std::uint64_t index_entries_rehashed = 0;  // entries touched by the patch
  std::uint64_t result_cache_hits = 0;  // whole response served from the memo
  /// Entries resident in the response LRU after this call (bounded by
  /// EngineOptions::result_cache_capacity).
  std::uint64_t result_cache_entries = 0;
  double index_update_seconds = 0.0;    // wall clock of the incremental patch
  /// HomoglyphDb::generation() observed at query time, and the generation
  /// the served index was (re)built or patched up to. Equal after every
  /// call; a gap would mean a stale index was served.
  std::uint64_t db_generation = 0;
  std::uint64_t index_generation = 0;
  /// True when the skeleton join ran inverted (references bucketed, IDNs
  /// streamed). The engine picks the direction per call (engine.hpp).
  bool inverted_join = false;

  /// Fraction of skeleton candidates the exact per-character verification
  /// rejected (closure over-approximation + hash collisions).
  [[nodiscard]] double skeleton_rejection_rate() const noexcept {
    return skeleton_candidates == 0
               ? 0.0
               : static_cast<double>(skeleton_rejected) /
                     static_cast<double>(skeleton_candidates);
  }

  /// One JSON object covering every field above plus kSchemaVersion (as
  /// "schema_version"). The single serialization used by the CLI, the
  /// serve stats endpoint, and the bench artifacts. `indent` as in
  /// util::JsonWriter (0 = compact).
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Single-pair matcher used by detect::Engine and by callers that probe
/// one (reference, IDN) pair at a time (candidate generation, warnings).
///
/// List-vs-list detection goes through detect::Engine exclusively — the
/// detect / detect_indexed / detect_unicode wrappers that used to live
/// here were removed once every caller migrated to
/// Engine::detect(DetectRequest).
class HomographDetector {
 public:
  /// The database must outlive the detector.
  explicit HomographDetector(const homoglyph::HomoglyphDb& db) : db_{&db} {}

  /// Match a single (reference, IDN) pair; empty diffs => no match
  /// (returns true only for genuine homograph matches with ≥1 diff).
  [[nodiscard]] bool match_pair(std::string_view reference,
                                const unicode::U32String& idn,
                                std::vector<DiffChar>* diffs = nullptr) const;

  /// Non-Latin references (Sections 2.2 and 7.1: "an attacker can create
  /// an IDN homograph of a non-Latin IDN", e.g. エ業大学 spoofing
  /// 工業大学). Same algorithm with a Unicode reference string.
  [[nodiscard]] bool match_pair(const unicode::U32String& reference,
                                const unicode::U32String& idn,
                                std::vector<DiffChar>* diffs = nullptr) const;

 private:
  const homoglyph::HomoglyphDb* db_;
};

/// Baseline: UC-skeleton matching in the style of prior character-based
/// work (Quinkert et al.) — an IDN is a homograph when its UTS #39
/// skeleton equals the reference string. Does not pinpoint differential
/// characters and cannot use SimChar pairs.
[[nodiscard]] std::vector<Match> detect_by_skeleton(
    const unicode::ConfusablesDb& uc, std::span<const std::string> references,
    std::span<const IdnEntry> idns, DetectionStats* stats = nullptr);

}  // namespace sham::detect
