// Paper-scale streaming measurement run (Sections 5-6 at zone scale):
//
//   * stream_zone_idns — Step 1+2 as one bounded-memory pass: a registry
//     zone file is streamed through dns::ZoneStreamReader, owner names are
//     deduplicated on the fly (registry zones group a delegation's records
//     together), and the "xn--" second-level labels are decoded into
//     detect::IdnEntry batches without ever materialising the zone or the
//     domain list;
//   * zone_file_slices / generated_slices — the same pass cut into N
//     slices of one zone (line-aligned byte ranges of a file, or
//     population-index ranges of a generated zone), each starting in the
//     exact parser state a sequential pass has at its first line;
//   * detect_sharded — Step 3: a few workers take the slices in order, and
//     each parses, extracts and detects its slice against a fixed reference
//     list, with the verdicts canonicalised (sorted by (reference, ACE) and
//     fingerprinted) so the sliced path is provably byte-identical to
//     detect_materialized, the materialise-then-detect oracle, regardless
//     of batch boundaries, slice count or worker count;
//   * GenerationDiffPipeline — the Section 4.2 maintenance loop as a
//     long-lived object: daily batches of new Unicode characters and new
//     registrations are folded in through simchar/HomoglyphDb incremental
//     updates and SkeletonIndex::rehash_changed, with
//     verify_against_rebuild proving the accumulated state identical to a
//     from-scratch rebuild;
//   * run_fleet — the multi-TLD measurement fleet: one detect::Engine per
//     TLD, all over one load of the build-db artifact
//     (Engine::from_db_artifact — every engine reads the same mapping),
//     streaming its zone as steady load and reporting per-TLD throughput
//     plus process RSS. `shards` threads share eight times as many slices
//     of each zone. bench/scale_run persists the result as BENCH_scale.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "detect/engine.hpp"
#include "detect/skeleton_index.hpp"
#include "font/font_source.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "internet/scenario.hpp"
#include "internet/scenario_core.hpp"
#include "internet/zone_gen.hpp"
#include "simchar/simchar.hpp"

namespace sham::measure {

/// VmRSS from /proc/self/status in KiB (0 where unavailable) — the
/// bounded-memory evidence the scale run records.
[[nodiscard]] std::size_t resident_kib();

// --- Step 1+2 streaming ---------------------------------------------------

/// Periodic progress snapshot of a running stream (long runs are
/// observable: domains seen so far and the current resident set).
struct StreamProgress {
  std::size_t domains = 0;
  std::size_t idns = 0;
  std::size_t records = 0;
  std::size_t rss_kib = 0;  // VmRSS at the snapshot
};

struct StreamOptions {
  std::string tld = "com";
  /// IDN entries per on_batch delivery (the bounded working set).
  std::size_t batch_size = 4096;
  /// Owner names between on_progress callbacks (0 = no callbacks); with
  /// several slices, about that many of the whole zone. Callbacks never
  /// overlap, and each reports the zone's totals so far, which never
  /// decrease.
  std::size_t progress_interval = 0;
  std::function<void(const StreamProgress&)> on_progress{};
};

struct ZoneStreamStats {
  std::size_t records = 0;  // resource records streamed
  std::size_t domains = 0;  // distinct owner names seen
  std::size_t idns = 0;     // decoded IDN entries delivered
  std::size_t batches = 0;  // on_batch invocations
};

/// Receives one batch of decoded IDN entries; the span is only valid
/// during the call.
using BatchSink = std::function<void(std::span<const detect::IdnEntry>)>;

/// Stream the zone file at `path`: parse records incrementally, dedup
/// consecutive owner names, decode the IDN owners of `options.tld`, and
/// deliver them in batches of at most `options.batch_size` entries.
/// Memory is bounded by the batch size, not the zone size. Throws like
/// dns::parse_zone_file.
ZoneStreamStats stream_zone_idns(const std::string& path, const StreamOptions& options,
                                 const BatchSink& on_batch);

// --- Zone slices ------------------------------------------------------------

/// One slice of a zone: streams the slice's IDN batches through the sink
/// and returns the slice's totals.
using BatchProducer = std::function<ZoneStreamStats(const BatchSink&)>;

/// Cut the zone file at `path` into `slices` line-aligned byte ranges. A
/// pre-scan on `workers` threads (the calling thread among them) collects
/// the $ORIGIN/$TTL lines, so each slice starts in the state a sequential
/// parse has at its first byte: the directives in effect and the
/// normalized owner of the last record before it (for continuation lines
/// and the consecutive-owner dedup). Slice k's totals, IDNs and verdicts
/// are then exactly its share of a sequential stream_zone_idns. A running
/// slice reads its range with pread into its own 64 KiB buffer; the file
/// is never mapped or loaded. A ZoneParseError carries the absolute line
/// number. One slice is stream_zone_idns, with no pre-scan. The producers
/// share the file and a copy of `options`, and may run concurrently.
[[nodiscard]] std::vector<BatchProducer> zone_file_slices(const std::string& path,
                                                          std::size_t slices,
                                                          const StreamOptions& options,
                                                          std::size_t workers);

/// Cut a generated zone into `slices` population-index ranges over one
/// core, built once and shared read-only. Slice k generates indexes
/// [k·P/N, (k+1)·P/N) straight into its own reader; only slice 0 emits the
/// header. IDN extraction uses zone.tld (options.tld is ignored).
[[nodiscard]] std::vector<BatchProducer> generated_slices(
    std::shared_ptr<const internet::ScenarioCore> core,
    const internet::ZoneGenOptions& zone, std::size_t slices,
    const StreamOptions& options);

// --- Canonical verdicts ---------------------------------------------------

/// One detection verdict in batch-order-independent form: the IDN is
/// identified by its ACE label (stable across batch boundaries) instead of
/// a per-batch index.
struct Verdict {
  std::uint32_t reference_index = 0;
  std::string ace;
  std::vector<detect::DiffChar> diffs;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

struct DetectionOutcome {
  /// Sorted by (reference_index, ace), deduplicated.
  std::vector<Verdict> verdicts;
  /// FNV-1a over the sorted verdict stream — equal fingerprints mean the
  /// two paths produced byte-identical verdict sets.
  std::uint64_t fingerprint = 0;
  ZoneStreamStats stream;
};

/// Canonicalise one engine response (sort, dedup, fingerprint). `idns` is
/// the entry list `matches` indexes into.
[[nodiscard]] DetectionOutcome canonicalize_matches(
    std::span<const detect::Match> matches, std::span<const detect::IdnEntry> idns);

/// Merge per-batch outcomes into one canonical outcome.
[[nodiscard]] DetectionOutcome merge_outcomes(std::vector<DetectionOutcome> parts);

/// Classic path: materialise every IDN of the zone, one detect() call.
/// The oracle detect_sharded must reproduce byte-for-byte.
[[nodiscard]] DetectionOutcome detect_materialized(const detect::Engine& engine,
                                                   std::span<const std::string> references,
                                                   const std::string& zone_path,
                                                   const StreamOptions& options,
                                                   detect::Strategy strategy);

// --- Slice-parallel detection ---------------------------------------------

/// Run the slices on `workers` threads (the calling thread among them)
/// over a shared const engine. Each worker takes the lowest-numbered slice
/// that has not started, so slices start in order and a worker that
/// finishes early takes the next one instead of waiting on a slow sibling.
/// A slice parses, extracts and detects its own batches, calling detect()
/// with the engine's default thread count. Per-slice verdicts merge
/// through the canonical sort/dedup/fingerprint, so the outcome is
/// identical at any worker count, slice count or batch size — the
/// invariance tests/test_scale.cpp proves. Slices share no queue, so a
/// failing slice never blocks another. A worker that has seen a slice fail
/// takes no further slice, though another worker may still start one while
/// the failure is being raised; every started slice finishes, and the error
/// of the earliest failed slice is rethrown, which is the error a
/// sequential pass would have hit first.
[[nodiscard]] DetectionOutcome detect_sharded(const detect::Engine& engine,
                                              std::span<const std::string> references,
                                              detect::Strategy strategy,
                                              std::span<const BatchProducer> slices,
                                              std::size_t workers);

// --- Generation-diff ingestion (Section 4.2 as a daily feed) --------------

/// One day's feed: the font version covering the new characters (null =
/// keep the previous version), the Unicode additions, and the day's new
/// registrations (full domain names, "<label>.<tld>").
struct DiffBatch {
  const font::FontSource* font = nullptr;
  std::vector<unicode::CodePoint> new_characters;
  std::vector<std::string> new_registrations;
};

struct DiffPipelineConfig {
  simchar::BuildOptions build;
  homoglyph::DbConfig db;
  detect::EngineOptions engine;
  std::string tld = "com";
};

class GenerationDiffPipeline {
 public:
  using Config = DiffPipelineConfig;

  struct ApplyResult {
    homoglyph::HomoglyphDb::UpdateResult db_update;
    std::size_t index_entries_rehashed = 0;  // reference-index entries touched
    std::size_t new_idns = 0;                // IDN registrations extracted
  };

  /// Build the initial state from `initial_font` (day 0). References must
  /// be ASCII LDH labels; the pipeline keeps a reference-side skeleton
  /// index patched incrementally as the database grows.
  GenerationDiffPipeline(const font::FontSource& initial_font,
                         std::vector<std::string> references, Config config = {});

  // The engine holds a pointer to db_; keep the pipeline pinned.
  GenerationDiffPipeline(const GenerationDiffPipeline&) = delete;
  GenerationDiffPipeline& operator=(const GenerationDiffPipeline&) = delete;

  /// Fold in one day's feed: SimChar update (O(|added|·n), not a rebuild),
  /// HomoglyphDb::update_with_new_characters, SkeletonIndex::rehash_changed
  /// over exactly the code points whose canonical representative moved,
  /// and IDN extraction of the new registrations.
  ApplyResult apply(const DiffBatch& batch);

  /// Detect the accumulated IDN set against the references under
  /// `strategy` (the engine's own cache patches itself through the
  /// database generation counter).
  [[nodiscard]] DetectionOutcome detect(detect::Strategy strategy) const;

  [[nodiscard]] const simchar::SimCharDb& simchar() const noexcept { return simchar_; }
  [[nodiscard]] const homoglyph::HomoglyphDb& db() const noexcept { return db_; }
  [[nodiscard]] const detect::SkeletonIndex& reference_index() const noexcept {
    return ref_index_;
  }
  [[nodiscard]] std::span<const std::string> references() const noexcept {
    return references_;
  }
  [[nodiscard]] std::span<const detect::IdnEntry> idns() const noexcept {
    return idns_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const font::FontSource& current_font() const noexcept {
    return *font_;
  }

 private:
  Config config_;
  const font::FontSource* font_;
  simchar::SimCharDb simchar_;
  homoglyph::HomoglyphDb db_;
  std::vector<std::string> references_;
  detect::SkeletonIndex ref_index_;
  std::vector<detect::IdnEntry> idns_;
  std::unique_ptr<detect::Engine> engine_;
};

/// Field-by-field comparison of the pipeline's incrementally-maintained
/// state against a from-scratch rebuild over the pipeline's current font
/// (whose coverage is day 0 plus every applied addition).
struct DiffEquivalence {
  bool pairs_identical = false;      // homoglyph pair set + provenance
  bool canonical_identical = false;  // confusable-closure canonical map
  bool skeleton_identical = false;   // reference-index bucket structure
  bool verdicts_identical = false;   // detect() under kSerial and kSkeleton

  [[nodiscard]] bool ok() const noexcept {
    return pairs_identical && canonical_identical && skeleton_identical &&
           verdicts_identical;
  }
};

[[nodiscard]] DiffEquivalence verify_against_rebuild(const GenerationDiffPipeline& p);

// --- Multi-TLD fleet ------------------------------------------------------

/// The most threads run_fleet runs one zone on (FleetOptions::shards).
inline constexpr std::size_t kMaxShards = 256;

struct FleetZone {
  std::string tld;
  /// Zone file on disk; empty = synthetic (the worker generates the zone
  /// on the fly from `scenario`/`which` over the engine's own database).
  std::string zone_path;
  internet::ScenarioConfig scenario{};  // synthetic zones only
  int which = 2;                      // source list for synthetic zones
  std::size_t chunk_bytes = 256 * 1024;  // generator chunk size
};

struct FleetOptions {
  /// build-db artifact, loaded once; every worker's engine adopts views
  /// over that one mapping (Engine::from_db_artifact). Its embedded
  /// reference list is the fleet's reference list.
  std::string db_file;
  std::vector<FleetZone> zones;
  std::size_t batch_size = 4096;
  detect::Strategy strategy = detect::Strategy::kSkeleton;
  /// Steady-load repetitions of each zone per worker.
  std::size_t passes = 1;
  /// Threads per zone, 1 to kMaxShards. One thread reads the zone as one
  /// slice. N > 1 threads cut it into 8N slices, run the pre-scan and take
  /// the slices in order, each parsing, extracting and detecting a slice at
  /// a time (zone_file_slices / generated_slices + detect_sharded). Slicing
  /// starts at most N threads per zone.
  std::size_t shards = 1;
  /// Ignored: slices share no batch queue.
  std::size_t queue_batches = 16;
  /// Owner names between progress callbacks (0 = a default cadence used
  /// only for internal peak-RSS sampling).
  std::size_t progress_interval = 0;
  std::function<void(const std::string& tld, const StreamProgress&)> on_progress;
};

struct FleetZoneResult {
  std::string tld;
  ZoneStreamStats stream;            // totals over all passes
  std::size_t matches = 0;           // canonical verdict count (one pass)
  std::uint64_t verdict_fingerprint = 0;
  double setup_seconds = 0.0;        // engine construction over the loaded artifact
  double seconds = 0.0;              // this worker's own work span
  double domains_per_second = 0.0;
  std::size_t rss_peak_kib = 0;      // max VmRSS sampled during the run
  std::string error;                 // nonempty when the worker failed
};

struct FleetReport {
  std::vector<FleetZoneResult> zones;
  std::size_t artifact_bytes = 0;
  std::size_t references = 0;
  std::size_t shards = 1;
  std::size_t rss_before_kib = 0;
  std::size_t rss_after_kib = 0;
  double seconds = 0.0;  // wall clock of the whole fleet
  std::size_t total_domains = 0;
  std::size_t total_idns = 0;
  std::size_t total_matches = 0;

  [[nodiscard]] bool ok() const noexcept;
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Run the fleet: one worker per zone, each with its own engine over the
/// shared artifact, streaming its zone `passes` times on `shards` threads.
/// Memory is bounded per zone by the generator head (generated zones) plus
/// shards x (read buffer or chunk + batch), not the zone size. A `shards`
/// of 0 or above kMaxShards throws std::invalid_argument before anything
/// is loaded or any thread starts.
[[nodiscard]] FleetReport run_fleet(const FleetOptions& options);

}  // namespace sham::measure
