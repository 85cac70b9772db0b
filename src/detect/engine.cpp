#include "detect/engine.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "db/artifact.hpp"
#include "detect/skeleton_index.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sham::detect {

namespace {

/// Streamed-side shards per worker thread (load-balancing granularity:
/// more shards smooth out skewed buckets at a small merge cost).
constexpr std::size_t kShardsPerThread = 4;

/// The engine picks the inverted join only when
///   refs * kInvertedJoinRatio <= idns
/// (or the reference-side index is warm) and the IDN-side index is neither
/// cached nor looking stable — the margin keeps a reusable IDN index worth
/// building near the break-even point.
constexpr std::size_t kInvertedJoinRatio = 4;

// --- Content fingerprints -------------------------------------------------
//
// Cache keys are content hashes, not span addresses: callers routinely
// reuse a buffer with different contents (or pass a different buffer with
// the same contents), and pointer identity would alias both. splitmix64
// over a length-prefixed, type-tagged stream of label sizes and code
// points / bytes; the tag keeps an ASCII reference list, a Unicode
// reference list and an IDN list with identical payloads from colliding.

constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fingerprinter {
  std::uint64_t h = 0x9ae16a3b2f90404fULL;
  void mix(std::uint64_t v) noexcept { h = splitmix64(h ^ v); }
};

std::uint64_t fingerprint_of(std::span<const IdnEntry> idns) {
  Fingerprinter f;
  f.mix(0x1D);  // type tag: IDN entries
  f.mix(idns.size());
  for (const auto& entry : idns) {
    f.mix(entry.unicode.size());
    for (const auto cp : entry.unicode) f.mix(cp);
  }
  return f.h;
}

std::uint64_t fingerprint_of(std::span<const std::string> references) {
  Fingerprinter f;
  f.mix(0xA5);  // type tag: ASCII references
  f.mix(references.size());
  for (const auto& ref : references) {
    f.mix(ref.size());
    for (const char c : ref) f.mix(static_cast<unsigned char>(c));
  }
  return f.h;
}

std::uint64_t fingerprint_of(std::span<const unicode::U32String> references) {
  Fingerprinter f;
  f.mix(0xB7);  // type tag: Unicode references
  f.mix(references.size());
  for (const auto& ref : references) {
    f.mix(ref.size());
    for (const auto cp : ref) f.mix(cp);
  }
  return f.h;
}

/// Per-shard output slot: owned by exactly one shard during the scan,
/// touched again only during the merge, after parallel_for_chunks returns.
struct ShardResult {
  std::vector<Match> matches;
  std::uint64_t candidates = 0;  // bucket entries handed to the verifier
  std::uint64_t char_comparisons = 0;
  std::uint64_t rejected = 0;  // candidates the exact check turned down
};

/// Forward skeleton scan: one skeleton hash + one bucket probe
/// per reference, exact per-character verification of every candidate.
/// Buckets list IDN indices ascending and can only ever contain a
/// superset of the true matches (see skeleton_index.hpp), so the verified
/// matches come out in the same (reference, idn) order the serial scan
/// produces — the shard merge below stays a plain concatenation.
template <typename RefString>
void scan_references_skeleton(const HomographDetector& detector,
                              std::span<const RefString> references,
                              std::span<const IdnEntry> idns,
                              const SkeletonIndex& index, std::size_t begin,
                              std::size_t end, ShardResult& out) {
  std::vector<DiffChar> diffs;
  for (std::size_t r = begin; r < end; ++r) {
    const auto& ref = references[r];
    const auto bucket = index.probe(index.hash_of(ref));
    if (bucket.empty()) continue;
    for (const auto x : bucket) {
      ++out.candidates;
      out.char_comparisons += ref.size();
      if (detector.match_pair(ref, idns[x].unicode, &diffs)) {
        out.matches.push_back({r, x, diffs});
      } else {
        ++out.rejected;
      }
    }
  }
}

/// Inverted skeleton scan over IDNs [begin, end): the index buckets
/// *reference* indices, each IDN probes once. The hash-equality join is
/// symmetric, so the candidate (reference, idn) pair set — and every
/// counter derived from it (char_comparisons charges the reference
/// length per candidate, exactly as the forward scan does) — is
/// identical to the forward join's; only the emission order differs
/// (idn-major), which the caller restores with a final sort.
template <typename RefString>
void scan_idns_skeleton(const HomographDetector& detector,
                        std::span<const RefString> references,
                        std::span<const IdnEntry> idns, const SkeletonIndex& index,
                        std::size_t begin, std::size_t end, ShardResult& out) {
  std::vector<DiffChar> diffs;
  for (std::size_t x = begin; x < end; ++x) {
    const auto bucket = index.probe(index.hash_of(idns[x].unicode));
    if (bucket.empty()) continue;
    for (const auto r : bucket) {
      ++out.candidates;
      out.char_comparisons += references[r].size();
      if (detector.match_pair(references[r], idns[x].unicode, &diffs)) {
        out.matches.push_back({r, x, diffs});
      } else {
        ++out.rejected;
      }
    }
  }
}

std::size_t resolve_threads(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return threads;
}

/// One side's cached skeleton index, keyed by that side's label-set
/// fingerprint, valid for `skeleton_generation` and patched forward via
/// canonical_changes_since.
struct IndexSlot {
  bool valid = false;
  std::uint64_t fingerprint = 0;
  std::uint64_t skeleton_generation = 0;
  std::shared_ptr<const SkeletonIndex> skeleton;
};

/// Serve the skeleton index over `labels` from `slot` (the caller holds the
/// cache mutex): reuse it as-is, patch it forward to `generation`, or
/// rebuild it. Records the path taken in `stats`.
template <typename Label>
std::shared_ptr<const SkeletonIndex> acquire_index(
    IndexSlot& slot, std::uint64_t fingerprint, std::span<const Label> labels,
    const homoglyph::HomoglyphDb& db, std::uint64_t generation,
    DetectionStats& stats) {
  if (!(slot.valid && slot.fingerprint == fingerprint)) {
    slot = {};
    slot.valid = true;
    slot.fingerprint = fingerprint;
  }
  util::Stopwatch stage;
  if (slot.skeleton != nullptr) {
    if (slot.skeleton_generation == generation) {
      stats.index_cache_hits = 1;
      return slot.skeleton;
    }
    if (const auto changes = db.canonical_changes_since(slot.skeleton_generation)) {
      auto patched = std::make_shared<SkeletonIndex>(*slot.skeleton);
      stats.index_entries_rehashed = patched->rehash_changed(labels, *changes);
      slot.skeleton = std::move(patched);
      slot.skeleton_generation = generation;
      stats.index_cache_updates = 1;
      stats.index_update_seconds = stage.seconds();
      return slot.skeleton;
    }
  }
  slot.skeleton = std::make_shared<SkeletonIndex>(db, labels);
  slot.skeleton_generation = generation;
  stats.index_cache_rebuilds = 1;
  stats.skeleton_build_seconds = stage.seconds();
  return slot.skeleton;
}

}  // namespace

// --- Cache state ----------------------------------------------------------
//
// Single-slot caches (last label set wins — the intended workload is many
// queries against one stable zone snapshot). Published indexes are
// immutable: an incremental update clones the index, patches the clone
// and swaps the shared_ptr, so a concurrent detect() holding the old
// pointer keeps scanning a consistent index (copy-on-write).
struct Engine::CacheState {
  std::mutex mutex;

  /// One whole-response memo entry. The engine keeps the last
  /// EngineOptions::result_cache_capacity distinct queries in an LRU
  /// (linear scan — capacity is single-digit) so rotating reference lists
  /// against one zone snapshot all stay warm. The key is what the matches
  /// depend on: neither the join direction nor the worker count changes
  /// them. Only kSkeleton responses are stored (kSerial never touches the
  /// cache), so the strategy is not part of the key either.
  struct ResultEntry {
    std::uint64_t ref_fingerprint = 0;
    std::uint64_t idn_fingerprint = 0;
    std::uint64_t generation = 0;
    std::shared_ptr<const DetectResponse> response;
    std::uint64_t tick = 0;  // last-use time; smallest tick is evicted

    [[nodiscard]] bool matches(std::uint64_t ref_fp, std::uint64_t idn_fp,
                               std::uint64_t gen) const noexcept {
      return ref_fingerprint == ref_fp && idn_fingerprint == idn_fp &&
             generation == gen;
    }
  };

  IndexSlot idn;  // forward join: IDNs bucketed
  IndexSlot ref;  // inverted join: references bucketed
  std::vector<ResultEntry> results;
  std::uint64_t result_tick = 0;

  /// Stability promotion: when the same IDN set shows up twice in a row it
  /// is treated as the stable snapshot and indexed (forward join) even if
  /// the size rule says inverted — otherwise the many-IDNs rule would keep
  /// the cacheable side unindexed forever. A memo hit counts as a sighting,
  /// so the promotion takes effect on the next memo miss against the same
  /// IDN set: a call with other references, which can reuse the index.
  bool last_idn_seen = false;
  std::uint64_t last_idn_fingerprint = 0;
};

Engine::Engine(const homoglyph::HomoglyphDb& db, EngineOptions options)
    : db_{&db},
      options_{options},
      cache_{options.cache ? std::make_unique<CacheState>() : nullptr} {}

Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

Engine Engine::from_db_file(const std::string& path, EngineOptions options) {
  return from_db_artifact(
      std::make_shared<const db::DbArtifact>(db::DbArtifact::load(path)), options);
}

Engine Engine::from_db_artifact(std::shared_ptr<const db::DbArtifact> artifact,
                                EngineOptions options) {
  if (artifact == nullptr) {
    throw std::invalid_argument{"Engine::from_db_artifact: null artifact"};
  }
  // Trust check before anything keys off the header fingerprint: checksums
  // only prove self-consistency (an attacker computes them like anyone
  // else), so verify the stamp actually describes the stored labels.
  // Otherwise a hostile artifact could stamp the fingerprint of one list
  // while shipping another, and both the pre-seeded cache slot below and
  // callers defaulting their references to artifact->references() would
  // silently operate on the wrong list.
  if (!artifact->references().empty() &&
      label_set_fingerprint(
          std::span<const std::string>{artifact->references()}) !=
          artifact->reference_fingerprint()) {
    throw std::runtime_error{
        "Engine::from_db_artifact: reference fingerprint does not match the "
        "stored labels (corrupt or hostile artifact)"};
  }
  // The view database lives on the heap so db_ survives Engine moves.
  auto db = std::make_unique<const homoglyph::HomoglyphDb>(artifact->homoglyph());
  Engine engine{*db, options};
  engine.owned_db_ = std::move(db);
  // Seed the reference-side skeleton slot from the artifact's SKEL
  // section: the first kSkeleton detect() against the serialized
  // reference list (same fingerprint, same generation) probes the mapped
  // index instead of building one. adopt_view re-validates the flat
  // arrays structurally (the checksummed file could still be hostile).
  if (engine.cache_ != nullptr && artifact->has_skeleton()) {
    auto index = std::make_shared<const SkeletonIndex>(SkeletonIndex::adopt_view(
        *engine.owned_db_, artifact->skeleton(), artifact->backing()));
    auto& slot = engine.cache_->ref;
    slot.valid = true;
    slot.fingerprint = artifact->reference_fingerprint();
    slot.skeleton_generation = artifact->generation();
    slot.skeleton = std::move(index);
  }
  engine.artifact_ = std::move(artifact);
  return engine;
}

std::string_view strategy_name(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kSerial: return "serial";
    case Strategy::kSkeleton: return "skeleton";
  }
  return "unknown";
}

std::optional<Strategy> parse_strategy(std::string_view name) noexcept {
  if (name == "serial") return Strategy::kSerial;
  if (name == "skeleton") return Strategy::kSkeleton;
  return std::nullopt;
}

void validate_request(const DetectRequest& request) {
  if (!request.references.empty() && !request.unicode_references.empty()) {
    throw std::invalid_argument{
        "DetectRequest: supply ASCII references or unicode_references, not both"};
  }
  // The ASCII span is matched (and skeleton-hashed) byte-wise; a stray
  // UTF-8 byte would silently diverge from per-code-point semantics, so
  // reject it here at the API boundary (satellite bugfix: hash asymmetry).
  for (std::size_t r = 0; r < request.references.size(); ++r) {
    if (request.references[r].empty()) {
      throw std::invalid_argument{"DetectRequest: references[" + std::to_string(r) +
                                  "] is empty; reference labels must be non-empty"};
    }
    for (const char c : request.references[r]) {
      const auto byte = static_cast<unsigned char>(c);
      if (byte >= 0x80) {
        throw std::invalid_argument{
            "DetectRequest: references[" + std::to_string(r) +
            "] contains non-ASCII byte " + std::to_string(byte) +
            "; decode it and pass it via unicode_references"};
      }
    }
  }
  for (std::size_t r = 0; r < request.unicode_references.size(); ++r) {
    if (request.unicode_references[r].empty()) {
      throw std::invalid_argument{"DetectRequest: unicode_references[" +
                                  std::to_string(r) +
                                  "] is empty; reference labels must be non-empty"};
    }
  }
}

std::uint64_t label_set_fingerprint(std::span<const IdnEntry> idns) noexcept {
  return fingerprint_of(idns);
}

std::uint64_t label_set_fingerprint(std::span<const std::string> references) noexcept {
  return fingerprint_of(references);
}

std::uint64_t label_set_fingerprint(
    std::span<const unicode::U32String> references) noexcept {
  return fingerprint_of(references);
}

DetectResponse Engine::detect(const DetectRequest& request) const {
  // Validation runs before the empty-input short-circuit so malformed
  // requests fail identically under every strategy and input size.
  validate_request(request);
  const auto strategy = request.strategy.value_or(options_.strategy);
  // Empty-input short-circuit: fully-zeroed stats under every strategy
  // (satellite bugfix — no index build, no cache traffic, no shard slots).
  if (request.idns.empty() ||
      (request.references.empty() && request.unicode_references.empty())) {
    return {};
  }
  if (!request.unicode_references.empty()) {
    return run(request.unicode_references, request.idns, strategy);
  }
  return run(request.references, request.idns, strategy);
}

template <typename RefString>
DetectResponse Engine::run(std::span<const RefString> references,
                           std::span<const IdnEntry> idns, Strategy strategy) const {
  util::Stopwatch total;
  DetectResponse out;
  const HomographDetector detector{*db_};

  if (strategy == Strategy::kSerial) {
    // Algorithm 1 as printed: no index, every (ref, IDN) length pair
    // probed. Deliberately cache-free — this is the ground-truth baseline
    // every cache state is compared against.
    std::vector<DiffChar> diffs;
    for (std::size_t r = 0; r < references.size(); ++r) {
      const auto& ref = references[r];
      for (std::size_t x = 0; x < idns.size(); ++x) {
        if (idns[x].unicode.size() != ref.size()) continue;
        ++out.stats.length_bucket_hits;
        out.stats.char_comparisons += ref.size();
        if (detector.match_pair(ref, idns[x].unicode, &diffs)) {
          out.matches.push_back({r, x, diffs});
        }
      }
    }
    out.stats.match_seconds = total.seconds();
    out.stats.shard_candidates = {out.stats.length_bucket_hits};
    out.stats.seconds = total.seconds();
    return out;
  }

  const auto workers = resolve_threads(options_.threads);
  const auto generation = db_->generation();
  const bool use_cache = cache_ != nullptr;
  out.stats.db_generation = generation;
  out.stats.index_generation = generation;

  // Join direction: the side that is already cached (warm index beats any
  // rebuild), then a stable-looking IDN set (build the reusable index),
  // then the size rule (index the smaller side). Without a cache the size
  // rule decides alone.
  bool inverted = references.size() * kInvertedJoinRatio <= idns.size();
  std::uint64_t ref_fp = 0;
  std::uint64_t idn_fp = 0;
  std::shared_ptr<const SkeletonIndex> skeleton;
  if (!use_cache) {
    util::Stopwatch build;
    skeleton = inverted ? std::make_shared<SkeletonIndex>(*db_, references)
                        : std::make_shared<SkeletonIndex>(*db_, idns);
    out.stats.skeleton_build_seconds = build.seconds();
  } else {
    ref_fp = fingerprint_of(references);
    idn_fp = fingerprint_of(idns);
    // One locked section: memo lookup, join choice, index acquisition
    // (cached hit / incremental patch / rebuild) and the stability
    // bookkeeping. The scan below runs with the lock released.
    std::lock_guard lock{cache_->mutex};
    const bool idn_stable =
        cache_->last_idn_seen && cache_->last_idn_fingerprint == idn_fp;
    cache_->last_idn_seen = true;
    cache_->last_idn_fingerprint = idn_fp;

    // L1: whole-response LRU, looked up before any join is chosen. On a
    // hit the stored response is copied and its timing/cache counters
    // overwritten to describe *this* call (no build, no scan).
    const auto hit = std::find_if(
        cache_->results.begin(), cache_->results.end(),
        [&](const auto& entry) { return entry.matches(ref_fp, idn_fp, generation); });
    if (hit != cache_->results.end()) {
      hit->tick = ++cache_->result_tick;
      out = *hit->response;
      out.stats.result_cache_hits = 1;
      out.stats.result_cache_entries = cache_->results.size();
      out.stats.index_cache_hits = 0;
      out.stats.index_cache_rebuilds = 0;
      out.stats.index_cache_updates = 0;
      out.stats.index_entries_rehashed = 0;
      out.stats.skeleton_build_seconds = 0.0;
      out.stats.index_update_seconds = 0.0;
      out.stats.match_seconds = 0.0;
      out.stats.merge_seconds = 0.0;
      out.stats.seconds = total.seconds();
      return out;
    }

    const bool idn_index_warm = cache_->idn.valid &&
                                cache_->idn.fingerprint == idn_fp &&
                                cache_->idn.skeleton != nullptr;
    // A warm reference-side index (e.g. seeded from a DB artifact whose
    // SKEL section indexes the reference list) beats the size rule, but
    // never outranks a warm or stable IDN side — the stability promotion
    // (see CacheState) must still win for repeated IDN snapshots.
    const bool ref_index_warm = cache_->ref.valid &&
                                cache_->ref.fingerprint == ref_fp &&
                                cache_->ref.skeleton != nullptr &&
                                cache_->ref.skeleton_generation == generation;
    inverted = !idn_index_warm && !idn_stable && (ref_index_warm || inverted);
    skeleton = inverted ? acquire_index(cache_->ref, ref_fp, references, *db_,
                                        generation, out.stats)
                        : acquire_index(cache_->idn, idn_fp, idns, *db_, generation,
                                        out.stats);
  }
  out.stats.inverted_join = inverted;
  out.stats.skeleton_buckets = skeleton->bucket_count();
  out.stats.skeleton_bucket_histogram = skeleton->occupancy_histogram();

  // The streamed side: references (forward) or IDNs (inverted join).
  const std::size_t domain = inverted ? idns.size() : references.size();
  const auto scan = [&](std::size_t begin, std::size_t end, ShardResult& slot) {
    if (inverted) {
      scan_idns_skeleton(detector, references, idns, *skeleton, begin, end, slot);
    } else {
      scan_references_skeleton(detector, references, idns, *skeleton, begin, end,
                               slot);
    }
  };
  const auto accumulate = [&](ShardResult& shard) {
    std::move(shard.matches.begin(), shard.matches.end(),
              std::back_inserter(out.matches));
    // length_bucket_hits keeps its "candidates examined" meaning across
    // strategies; under kSkeleton it equals skeleton_candidates.
    out.stats.length_bucket_hits += shard.candidates;
    out.stats.skeleton_candidates += shard.candidates;
    out.stats.char_comparisons += shard.char_comparisons;
    out.stats.skeleton_rejected += shard.rejected;
    out.stats.shard_candidates.push_back(shard.candidates);
  };
  // The inverted scan emits idn-major; restore the canonical
  // (reference_index, idn_index) order the serial scan defines. Pairs are
  // unique, so a plain sort is deterministic.
  const auto restore_order = [&] {
    if (!inverted) return;
    std::sort(out.matches.begin(), out.matches.end(),
              [](const Match& a, const Match& b) {
                return a.reference_index != b.reference_index
                           ? a.reference_index < b.reference_index
                           : a.idn_index < b.idn_index;
              });
  };

  util::Stopwatch stage;
  if (workers <= 1 || domain <= 1) {
    ShardResult shard;
    scan(0, domain, shard);
    out.stats.match_seconds = stage.seconds();
    accumulate(shard);
    restore_order();
  } else {
    const std::size_t shards =
        std::min(domain, std::max<std::size_t>(1, workers * kShardsPerThread));
    std::vector<ShardResult> shard_results(shards);
    {
      util::ThreadPool pool{workers};
      pool.parallel_for_chunks(
          0, domain, shards,
          [&](std::size_t chunk, std::size_t chunk_begin, std::size_t chunk_end) {
            scan(chunk_begin, chunk_end, shard_results[chunk]);
          });
    }
    out.stats.match_seconds = stage.seconds();

    // Deterministic merge: shards cover ascending ranges of the streamed
    // side, so appending them in shard order reproduces that side's scan
    // order (the inverted join then re-sorts to reference-major).
    stage.reset();
    std::size_t total_matches = 0;
    for (const auto& shard : shard_results) total_matches += shard.matches.size();
    out.matches.reserve(total_matches);
    out.stats.shard_candidates.reserve(shards);
    for (auto& shard : shard_results) accumulate(shard);
    restore_order();
    out.stats.merge_seconds = stage.seconds();

    out.stats.threads_used = workers;
    out.stats.shards_used = shards;
  }

  if (use_cache && options_.result_cache_capacity > 0) {
    std::lock_guard lock{cache_->mutex};
    auto& lru = cache_->results;
    auto slot = std::find_if(lru.begin(), lru.end(), [&](const auto& entry) {
      return entry.matches(ref_fp, idn_fp, generation);
    });
    if (slot == lru.end()) {
      if (lru.size() >= options_.result_cache_capacity) {
        // Evict the least-recently-used entry (smallest tick).
        slot = std::min_element(lru.begin(), lru.end(),
                                [](const auto& x, const auto& y) {
                                  return x.tick < y.tick;
                                });
      } else {
        slot = lru.emplace(lru.end());
      }
    }
    *slot = {ref_fp, idn_fp, generation, nullptr, ++cache_->result_tick};
    out.stats.result_cache_entries = lru.size();
    slot->response = std::make_shared<DetectResponse>(out);
  }

  out.stats.seconds = total.seconds();
  return out;
}

template DetectResponse Engine::run(std::span<const std::string>,
                                    std::span<const IdnEntry>, Strategy) const;
template DetectResponse Engine::run(std::span<const unicode::U32String>,
                                    std::span<const IdnEntry>, Strategy) const;

}  // namespace sham::detect
