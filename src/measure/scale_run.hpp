// Paper-scale streaming measurement run (Sections 5-6 at zone scale):
//
//   * stream_zone_idns — Step 1+2 as one bounded-memory pass: a registry
//     zone file is streamed through dns::ZoneStreamReader, owner names are
//     deduplicated on the fly (registry zones group a delegation's records
//     together), and the "xn--" second-level labels are decoded into
//     detect::IdnEntry batches without ever materialising the zone or the
//     domain list;
//   * detect_sharded — Step 3 over those batches (from a zone file or a
//     generated zone) against a fixed reference list on N detection
//     shards, with the verdicts canonicalised (sorted by (reference, ACE)
//     and fingerprinted) so the streaming path is provably byte-identical
//     to detect_materialized, the materialise-then-detect oracle,
//     regardless of batch boundaries or shard count;
//   * GenerationDiffPipeline — the Section 4.2 maintenance loop as a
//     long-lived object: daily batches of new Unicode characters and new
//     registrations are folded in through simchar/HomoglyphDb incremental
//     updates and SkeletonIndex::rehash_changed, with
//     verify_against_rebuild proving the accumulated state identical to a
//     from-scratch rebuild;
//   * run_fleet — the multi-TLD measurement fleet: one detect::Engine per
//     TLD, every worker mapping the same build-db artifact
//     (Engine::from_db_file — the page cache shares the physical pages),
//     streaming its zone as steady load and reporting per-TLD throughput
//     plus process RSS. bench/scale_run persists the result as
//     BENCH_scale.json.
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
  /// Owner names between on_progress callbacks (0 = no callbacks).
  std::size_t progress_interval = 0;
  std::function<void(const StreamProgress&)> on_progress;
};

struct ZoneStreamStats {
  std::size_t records = 0;  // resource records streamed
  std::size_t domains = 0;  // distinct owner names seen
  std::size_t idns = 0;     // decoded IDN entries delivered
  std::size_t batches = 0;  // on_batch invocations
};

/// Stream the zone file at `path`: parse records incrementally, dedup
/// consecutive owner names, decode the IDN owners of `options.tld`, and
/// deliver them in batches of at most `options.batch_size` entries. The
/// batch span is only valid during the callback. Memory is bounded by the
/// batch size, not the zone size. Throws like dns::parse_zone_file.
ZoneStreamStats stream_zone_idns(
    const std::string& path, const StreamOptions& options,
    const std::function<void(std::span<const detect::IdnEntry>)>& on_batch);

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

// --- Intra-zone sharding --------------------------------------------------

/// Produce side of a sharded run: invoked with a batch sink, drives the
/// whole stream through it, returns the stream totals. stream_zone_idns
/// and stream_generated_idns both curry into this shape (a lambda that
/// binds every argument but the sink).
using BatchProducer = std::function<ZoneStreamStats(
    const std::function<void(std::span<const detect::IdnEntry>)>&)>;

struct ShardOptions {
  /// Detection workers pulling batches off the stream. <= 1 runs inline
  /// on the producing thread (no queue, no threads).
  std::size_t shards = 1;
  /// Bounded producer->worker batch queue: the producer blocks once this
  /// many batches are in flight (backpressure keeps memory bounded by
  /// queue_batches x batch_size entries).
  std::size_t queue_batches = 16;
};

/// Run one stream through N detection shards over a shared const engine
/// (shards <= 1: batch by batch on the producing thread, bounded memory).
/// Per-shard verdicts merge through the canonical sort/dedup/fingerprint,
/// so the outcome is identical at any shard count, batch size, or
/// interleaving — the invariance tests/test_scale.cpp proves. Worker
/// exceptions abort the queue (unblocking the producer) and rethrow.
[[nodiscard]] DetectionOutcome detect_sharded(const detect::Engine& engine,
                                              std::span<const std::string> references,
                                              detect::Strategy strategy,
                                              const ShardOptions& shard,
                                              const BatchProducer& produce);

// --- Streaming zone generation (produce side) -----------------------------

/// A synthetic zone generated on the fly: scenario config + zone options
/// (which/tld/chunk size) + the bounded generator->parser chunk ring.
struct GenStream {
  internet::ScenarioConfig scenario;
  internet::ZoneGenOptions zone;
  /// Text chunks buffered between the generator thread and the parsing
  /// thread; the generator blocks when the ring is full (backpressure).
  std::size_t ring_chunks = 8;
};

/// Generate-and-extract without touching disk: a generator thread streams
/// internet::ZoneTextStream chunks through a bounded ring into
/// dns::ZoneStreamReader on the calling thread, which batches IdnEntry
/// like stream_zone_idns. IDN extraction uses gen.zone.tld (options.tld
/// is ignored). Memory is bounded by the generator head + ring + batch.
ZoneStreamStats stream_generated_idns(
    const homoglyph::HomoglyphDb& db, const GenStream& gen,
    const StreamOptions& options,
    const std::function<void(std::span<const detect::IdnEntry>)>& on_batch);

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
  /// Also sizes the reference index: engine.skeleton_bucket_cap.
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

struct FleetZone {
  std::string tld;
  /// Zone file on disk; empty = synthetic (the worker generates the zone
  /// on the fly from `scenario`/`which` over the engine's own database).
  std::string zone_path;
  internet::ScenarioConfig scenario;  // synthetic zones only
  int which = 2;                      // source list for synthetic zones
  std::size_t chunk_bytes = 256 * 1024;  // generator chunk size
};

struct FleetOptions {
  /// build-db artifact every worker maps (Engine::from_db_file). Its
  /// embedded reference list is the fleet's reference list.
  std::string db_file;
  std::vector<FleetZone> zones;
  std::size_t batch_size = 4096;
  detect::Strategy strategy = detect::Strategy::kSkeleton;
  /// Steady-load repetitions of each zone per worker.
  std::size_t passes = 1;
  /// Intra-zone detection shards per worker (detect_sharded).
  std::size_t shards = 1;
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
  double setup_seconds = 0.0;        // artifact map + engine construction
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

/// Run the fleet: one worker thread per zone, each with its own engine
/// over the shared artifact, streaming its zone `passes` times.
[[nodiscard]] FleetReport run_fleet(const FleetOptions& options);

}  // namespace sham::measure
