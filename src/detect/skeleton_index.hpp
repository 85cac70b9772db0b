// Skeleton-hash candidate index (Strategy::kSkeleton).
//
// UTS#39-style skeletonization turns Algorithm 1's pairwise scan into a
// hash join: every code point is replaced by its confusable-closure
// representative (HomoglyphDb::canonical), the canonicalized label is
// hashed (FNV-1a over representatives, length-prefixed; the artifact's
// SKEL section stores the hash, and skeleton_index.cpp holds its one
// definition), and labels are bucketed by that hash. A probe then costs one skeleton computation
// plus one bucket lookup instead of a scan over every same-length label.
//
// The index can be built over either side of the join: IDN entries (the
// classic forward join — references probe IDN buckets) or reference
// labels (the inverted join for the many-references case — IDNs probe
// reference buckets). Engine picks the cheaper side.
//
// Soundness: if a reference matches an IDN under Algorithm 1, every
// position is either equal or a listed pair, and both imply equal
// canonical representatives — so the two skeleton hashes are equal and
// the bucket probe can never miss a true match. The converse fails: the
// homoglyph relation is not transitive, so the closure over-approximates
// (a~b and b~c put a and c in one component even when {a, c} is not a
// pair), and distinct skeletons can collide in the hash. Every bucket hit
// is therefore a *candidate* that must be re-verified with the exact
// per-character check before it becomes a match.
//
// Storage: the index is the artifact's sorted arrays (db::SkeletonFlat) —
// each entry's hash, plus buckets sorted by hash holding ascending entry
// indices. Probes binary-search spans over them, whether the arrays were
// built in memory or adopted from a mapped artifact. Copies share the
// arrays (a copy is O(1)); a mutation builds new arrays.
//
// Incremental maintenance: when the database reports which code points
// changed their canonical representative
// (HomoglyphDb::canonical_changes_since), only the entries whose labels
// contain an affected code point are rehashed — an entry's hash depends
// on canonical(c) for exactly its raw code points, so rehashing that set
// reproduces a full rebuild. A built index holds no empty buckets; an
// adopted one may (probe treats them as misses).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/format.hpp"
#include "detect/detector.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "unicode/codepoint.hpp"

namespace sham::detect {

struct SkeletonIndexOptions {
  /// Keep only the low `hash_bits` bits of each skeleton hash. The default
  /// keeps all 64; tests shrink it to force bucket collisions and exercise
  /// the verification path deterministically.
  unsigned hash_bits = 64;
  /// Ignored; perfbench compiles against it.
  std::size_t max_bucket_occupancy = 0;
};

class SkeletonIndex {
 public:
  /// Build over IDN labels (forward join). The database must outlive the
  /// index; the label list only needs to be live during construction and
  /// rehash_changed() calls (and must be the same list each time).
  SkeletonIndex(const homoglyph::HomoglyphDb& db, std::span<const IdnEntry> idns,
                SkeletonIndexOptions options = {});
  /// Build over ASCII reference labels (inverted join). Callers must have
  /// rejected non-ASCII bytes already: bytes are hashed as code points.
  SkeletonIndex(const homoglyph::HomoglyphDb& db, std::span<const std::string> labels,
                SkeletonIndexOptions options = {});
  /// Build over Unicode reference labels (inverted join).
  SkeletonIndex(const homoglyph::HomoglyphDb& db,
                std::span<const unicode::U32String> labels,
                SkeletonIndexOptions options = {});

  /// Skeleton hash of a probe label (ASCII or Unicode).
  [[nodiscard]] std::uint64_t hash_of(std::string_view reference) const;
  [[nodiscard]] std::uint64_t hash_of(const unicode::U32String& reference) const;

  /// Entry indices bucketed under `hash`, ascending; empty span on a miss.
  /// The bucket over-approximates (closure + collisions): exact-verify
  /// every entry.
  [[nodiscard]] std::span<const std::uint32_t> probe(std::uint64_t hash) const {
    const auto& hashes = arrays_.bucket_hashes;
    const auto it = std::lower_bound(hashes.begin(), hashes.end(), hash);
    if (it == hashes.end() || *it != hash) return {};
    const auto b = static_cast<std::size_t>(it - hashes.begin());
    return arrays_.bucket_entries.subspan(
        arrays_.bucket_offsets[b], arrays_.bucket_offsets[b + 1] - arrays_.bucket_offsets[b]);
  }

  /// Number of non-empty buckets (an adopted index may list empty buckets;
  /// they don't count).
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return static_cast<std::size_t>(arrays_.non_empty_buckets);
  }

  [[nodiscard]] std::size_t entry_count() const noexcept {
    return arrays_.entry_hashes.size();
  }

  /// Current skeleton hash of entry `i` (what its bucket is keyed by).
  [[nodiscard]] std::uint64_t entry_hash(std::size_t i) const {
    return arrays_.entry_hashes[i];
  }

  // --- DB-artifact (de)serialization ------------------------------------

  /// Copy the arrays out in the artifact's layout (db/format.hpp SKEL
  /// section). Deterministic: buckets ascending by hash.
  [[nodiscard]] db::SkeletonFlat to_flat() const;

  /// Adopt a mapped flat index in place (zero parsing; probes binary-search
  /// the bucket table). `db` must be the database the index was built
  /// against — same canonical map, same generation — and must outlive the
  /// index; `backing` keeps the mapped arrays alive. A rehash_changed()
  /// that moves an entry builds new arrays in memory.
  /// Throws std::runtime_error on structurally inconsistent flat data,
  /// including any entry not filed exactly once, under its own hash.
  static SkeletonIndex adopt_view(const homoglyph::HomoglyphDb& db,
                                  const db::SkeletonFlatView& flat,
                                  std::shared_ptr<const void> backing);

  /// True while the index reads adopted (e.g. memory-mapped) storage.
  [[nodiscard]] bool is_view() const noexcept { return adopted_; }

  /// Recompute the hashes of exactly the entries whose label contains a
  /// code point in `changed` (sorted or not; the set the database reports
  /// after an update), re-bucketing when a hash moved. `labels` must be
  /// the same list the index was built over. Returns the number of
  /// entries examined.
  std::size_t rehash_changed(std::span<const IdnEntry> labels,
                             std::span<const unicode::CodePoint> changed);
  std::size_t rehash_changed(std::span<const std::string> labels,
                             std::span<const unicode::CodePoint> changed);
  std::size_t rehash_changed(std::span<const unicode::U32String> labels,
                             std::span<const unicode::CodePoint> changed);

  /// Bucket-occupancy histogram: slot i counts buckets holding exactly
  /// i+1 entries; the final slot aggregates buckets of size >= max_slots.
  /// Empty buckets (possible in an adopted index) are not counted.
  [[nodiscard]] std::vector<std::uint64_t> occupancy_histogram(
      std::size_t max_slots = 8) const;

 private:
  SkeletonIndex() = default;  // adopt_view scaffolding

  template <typename String>
  [[nodiscard]] std::uint64_t hash_impl(const String& label) const;
  template <typename Label>
  void build(std::span<const Label> labels);
  template <typename Label>
  std::size_t rehash_impl(std::span<const Label> labels,
                          std::span<const unicode::CodePoint> changed);
  /// Bucket `flat`'s entry hashes and make it this index's storage.
  void attach_buckets(std::shared_ptr<db::SkeletonFlat> flat);

  const homoglyph::HomoglyphDb* db_ = nullptr;
  /// The query path reads only these spans, which point into `keepalive_`:
  /// arrays built in memory or the adopted mapping.
  db::SkeletonFlatView arrays_;
  std::shared_ptr<const void> keepalive_;
  bool adopted_ = false;
};

}  // namespace sham::detect
