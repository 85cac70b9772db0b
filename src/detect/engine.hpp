// The detection engine: the single detect(DetectRequest) entry point over
// Algorithm 1. The old detect / detect_indexed / detect_unicode triplet of
// HomographDetector is gone — every list-vs-list caller goes through here.
//
// Execution strategies — one production path plus its oracle:
//   kSkeleton  the production path (and the default). One side of the
//              join is bucketed by confusable-closure skeleton hash
//              (skeleton_index.hpp); the other side costs one skeleton
//              computation plus one bucket probe per label, and every
//              candidate is re-verified with the exact per-character
//              check. Which side gets indexed is the *join direction*:
//              forward buckets the IDNs and streams references; inverted
//              buckets the references and streams IDNs (the many-IDNs
//              case). The engine picks it per call, preferring a side whose
//              index it can reuse and otherwise indexing the smaller side
//              (see engine.cpp); no caller chooses it. With more than one
//              thread the streamed side is sharded over a util::ThreadPool.
//   kSerial    Algorithm 1 as printed — outer loop over references, inner
//              loop over all IDNs, restricted to equal lengths. The
//              obviously-correct oracle every test compares against.
//
// Caching: the engine owns its indexes. With EngineOptions::cache (the
// default) it keeps the last-built skeleton index of each join side keyed
// by a content fingerprint of the label set plus the HomoglyphDb
// generation, and a whole-response memo keyed on (reference fingerprint,
// IDN fingerprint, generation) — everything the matches depend on, so a
// repeated query is a memo hit whichever join first answered it.
// Repeated queries against a stable zone snapshot therefore pay the index
// build once; when the database grows
// (HomoglyphDb::apply_update / update_with_new_characters) the cached
// skeleton index is patched incrementally — only entries whose labels
// contain a code point whose canonical representative moved are rehashed.
// Strategy::kSerial never touches the cache (it is the ground-truth
// baseline the test suite compares everything against).
//
// Const-safety: detect() stays const — cache state lives behind a mutex
// in a heap-allocated slot, published indexes are immutable shared_ptrs
// (copy-on-write updates), so concurrent detect() calls on one Engine
// are safe.
//
// Determinism: both strategies, both join directions and every cache state
// (cold, warm, post-incremental-update) produce the same match list
// in the same (reference_index, idn_index) order. The parallel scan
// shards the streamed side into contiguous ascending ranges, collects
// one Match vector plus one counter set per shard (no shared mutable
// state, no atomics on the hot path), and merges the shards in shard
// order; the inverted join additionally restores (reference_index,
// idn_index) order with a final sort. DetectionStats doubles as the
// observability layer: per-stage wall-clock times, per-shard candidate
// counts, and cache hit/rebuild/update counters (see detector.hpp for
// the exact aggregation semantics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "detect/detector.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "unicode/codepoint.hpp"

namespace sham::db {
class DbArtifact;
}  // namespace sham::db

namespace sham::detect {

enum class Strategy {
  kSerial,    // Algorithm 1 as printed (no index): the test oracle
  kSkeleton,  // skeleton-hash candidate index + exact verification
};

[[nodiscard]] std::string_view strategy_name(Strategy strategy) noexcept;
[[nodiscard]] std::optional<Strategy> parse_strategy(std::string_view name) noexcept;

struct EngineOptions {
  Strategy strategy = Strategy::kSkeleton;
  /// Worker threads for the kSkeleton scan; 0 means hardware_concurrency.
  std::size_t threads = 0;
  /// Keep indexes (and the response memo) on the engine across
  /// detect() calls. Disable for one-shot engines or measurement code
  /// that needs every call to pay full cost.
  bool cache = true;
  /// Response-memo LRU capacity: the last K distinct (references, idns,
  /// generation) responses are kept, so rotating reference lists against
  /// one zone snapshot all hit.
  /// 0 disables the response memo (index caching is unaffected).
  std::size_t result_cache_capacity = 8;
  /// Ignored; perfbench compiles against it.
  static constexpr std::size_t skeleton_bucket_cap = 64;
};

/// One detection run: references (exactly one of the two spans may be
/// non-empty — ASCII reference names or decoded Unicode labels), the IDN
/// set, and optionally the strategy, overriding EngineOptions::strategy.
/// ASCII `references` must be pure ASCII: non-ASCII bytes are rejected
/// with std::invalid_argument (put such labels in unicode_references —
/// byte-wise matching of multi-byte UTF-8 would silently diverge from
/// the per-code-point semantics of Algorithm 1). Zero-length reference
/// labels are rejected the same way: an empty label is never a domain
/// label, and letting it through would hash an empty skeleton stream.
/// See validate_request for the exact rules — they hold identically under
/// both strategies and through the serving layer.
struct DetectRequest {
  std::span<const std::string> references{};                 // ASCII (LDH) names
  std::span<const unicode::U32String> unicode_references{};  // non-Latin refs
  std::span<const IdnEntry> idns{};
  std::optional<Strategy> strategy{};  // overrides EngineOptions::strategy
};

struct DetectResponse {
  std::vector<Match> matches;  // stable (reference_index, idn_index) order
  DetectionStats stats;
};

/// Uniform boundary validation, shared by every strategy and by the
/// serving layer (serve::DetectionServer validates at admission time with
/// this exact function). Throws std::invalid_argument when
///   - both reference spans are non-empty (ambiguous request),
///   - an ASCII reference contains a non-ASCII byte, or
///   - any reference label (ASCII or Unicode) is zero-length.
/// A well-formed request with no references or no IDNs passes — detect()
/// short-circuits it to an empty response with zeroed stats.
void validate_request(const DetectRequest& request);

/// Content fingerprint of a label set — the key the engine caches indexes
/// under, exposed so the serving layer can group same-snapshot requests
/// (fingerprint + HomoglyphDb generation) without duplicating the scheme.
/// Equal contents fingerprint equally regardless of buffer address; the
/// three overloads are type-tagged so payload-identical sets of different
/// kinds never collide.
[[nodiscard]] std::uint64_t label_set_fingerprint(
    std::span<const IdnEntry> idns) noexcept;
[[nodiscard]] std::uint64_t label_set_fingerprint(
    std::span<const std::string> references) noexcept;
[[nodiscard]] std::uint64_t label_set_fingerprint(
    std::span<const unicode::U32String> references) noexcept;

class Engine {
 public:
  /// The database must outlive the engine. The engine observes database
  /// growth through HomoglyphDb::generation(); mutating the database
  /// in place invalidates (incrementally updates) cached indexes on the
  /// next detect() call.
  explicit Engine(const homoglyph::HomoglyphDb& db, EngineOptions options = {});
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;

  /// Zero-parse cold start: mmap a DB artifact (db::write_db_file) and
  /// run against its view-mode homoglyph database — the engine owns both
  /// the mapping and the adopted database, so no external lifetime to
  /// manage. When the artifact carries a reference-side skeleton index,
  /// the engine's cache is pre-seeded with it (keyed by the artifact's
  /// reference fingerprint and generation stamp), so the first
  /// Strategy::kSkeleton call against the artifact's reference list skips
  /// the index build entirely. Throws std::runtime_error on a corrupt or
  /// incompatible artifact.
  static Engine from_db_file(const std::string& path, EngineOptions options = {});
  static Engine from_db_artifact(std::shared_ptr<const db::DbArtifact> artifact,
                                 EngineOptions options = {});

  /// The loaded artifact (null for database-backed engines) — exposes the
  /// serialized reference list so callers can probe with the exact set
  /// the pre-seeded index covers.
  [[nodiscard]] const db::DbArtifact* artifact() const noexcept {
    return artifact_.get();
  }

  [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }

  /// The homoglyph database this engine detects with (the adopted
  /// artifact view for from_db_file engines). Const queries are
  /// thread-safe; synthetic-zone generators draw substitution characters
  /// from the same database the fleet detects with.
  [[nodiscard]] const homoglyph::HomoglyphDb& db() const noexcept { return *db_; }

  /// Run Algorithm 1 under the requested strategy. Applies
  /// validate_request() first (std::invalid_argument on malformed input,
  /// identically across strategies); empty references or IDNs then
  /// short-circuit to an empty response with fully-zeroed stats.
  [[nodiscard]] DetectResponse detect(const DetectRequest& request) const;

 private:
  struct CacheState;

  template <typename RefString>
  [[nodiscard]] DetectResponse run(std::span<const RefString> references,
                                   std::span<const IdnEntry> idns,
                                   Strategy strategy) const;

  const homoglyph::HomoglyphDb* db_;
  EngineOptions options_;
  /// Heap slot so the Engine stays movable (the mutex lives inside);
  /// null when options_.cache is false.
  std::unique_ptr<CacheState> cache_;
  /// Set only by from_db_artifact: the mapping keepalive and the heap-
  /// allocated view database db_ points at (stable across moves).
  std::shared_ptr<const db::DbArtifact> artifact_;
  std::unique_ptr<const homoglyph::HomoglyphDb> owned_db_;
};

}  // namespace sham::detect
