// Skeleton-hash candidate index (Strategy::kSkeleton).
//
// UTS#39-style skeletonization turns Algorithm 1's pairwise scan into a
// hash join: every code point is replaced by its confusable-closure
// representative (HomoglyphDb::canonical), the canonicalized label is
// hashed (FNV-1a over representatives, length-prefixed), and labels are
// bucketed by that hash. A probe then costs one skeleton computation
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
// Incremental maintenance: the index records each entry's hash and an
// inverted posting list from raw code point to the entries whose label
// contains it. When the database reports which code points changed their
// canonical representative (HomoglyphDb::canonical_changes_since), only
// the entries whose labels contain an affected code point are rehashed —
// an entry's hash depends on canonical(c) for exactly its raw code
// points, so rehashing that set reproduces a full rebuild. Removal can
// leave empty buckets behind (probe treats them as misses).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
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
  /// every entry. Returned by value so the owned and memory-mapped (view)
  /// storage modes share one shape.
  [[nodiscard]] std::span<const std::uint32_t> probe(std::uint64_t hash) const {
    if (view_) {
      const auto b = view_bucket(hash);
      if (b == kNoBucket) return {};
      return flat_.bucket_entries.subspan(
          flat_.bucket_offsets[b], flat_.bucket_offsets[b + 1] - flat_.bucket_offsets[b]);
    }
    const auto it = buckets_.find(hash);
    return it == buckets_.end() ? std::span<const std::uint32_t>{}
                                : std::span<const std::uint32_t>{it->second};
  }

  /// Number of non-empty buckets (incremental maintenance can leave empty
  /// buckets in the table; they don't count).
  [[nodiscard]] std::size_t bucket_count() const noexcept { return non_empty_buckets_; }

  [[nodiscard]] std::size_t entry_count() const noexcept {
    return view_ ? flat_.entry_hashes.size() : entry_hashes_.size();
  }

  /// Current skeleton hash of entry `i` (what its bucket is keyed by).
  [[nodiscard]] std::uint64_t entry_hash(std::size_t i) const {
    return view_ ? flat_.entry_hashes[i] : entry_hashes_[i];
  }

  // --- DB-artifact (de)serialization ------------------------------------

  /// Flatten into the artifact's sorted-array layout (db/format.hpp SKEL
  /// section). Deterministic: buckets ascending by hash.
  [[nodiscard]] db::SkeletonFlat to_flat() const;

  /// Adopt a mapped flat index in place (zero parsing; probes binary-search
  /// the bucket table). `db` must be the database the index was built
  /// against — same canonical map, same generation — and must outlive the
  /// index; `backing` keeps the mapped arrays alive. The first
  /// rehash_changed() call materializes an owned copy (copy-on-write).
  /// Throws std::runtime_error on structurally inconsistent flat data,
  /// including any entry not filed exactly once, under its own hash.
  static SkeletonIndex adopt_view(const homoglyph::HomoglyphDb& db,
                                  const db::SkeletonFlatView& flat,
                                  std::shared_ptr<const void> backing);

  /// True when the index reads adopted (e.g. memory-mapped) storage.
  [[nodiscard]] bool is_view() const noexcept { return view_; }

  /// Recompute the hashes of exactly the entries whose label contains a
  /// code point in `changed` (sorted or not; the set the database reports
  /// after an update), moving them between buckets. `labels` must be the
  /// same list the index was built over. Returns the number of entries
  /// examined. Vacated buckets stay in the table, empty.
  std::size_t rehash_changed(std::span<const IdnEntry> labels,
                             std::span<const unicode::CodePoint> changed);
  std::size_t rehash_changed(std::span<const std::string> labels,
                             std::span<const unicode::CodePoint> changed);
  std::size_t rehash_changed(std::span<const unicode::U32String> labels,
                             std::span<const unicode::CodePoint> changed);

  /// Bucket-occupancy histogram: slot i counts buckets holding exactly
  /// i+1 entries; the final slot aggregates buckets of size >= max_slots.
  /// Empty buckets (possible after rehash_changed) are not counted.
  [[nodiscard]] std::vector<std::uint64_t> occupancy_histogram(
      std::size_t max_slots = 8) const;

 private:
  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);

  SkeletonIndex() = default;  // adopt_view scaffolding

  template <typename String>
  [[nodiscard]] std::uint64_t hash_impl(const String& label) const;
  template <typename Label>
  void build(std::span<const Label> labels);
  /// Bucket and posting insertion from entry_hashes_, ascending entry
  /// order (deterministic); shared by build() and materialize().
  template <typename Label>
  void fill_buckets(std::span<const Label> labels);
  template <typename Label>
  std::size_t rehash_impl(std::span<const Label> labels,
                          std::span<const unicode::CodePoint> changed);
  /// Copy-on-write: rebuild owned buckets/postings from the flat arrays
  /// (no rehash — hashes are stored) before the first mutation.
  template <typename Label>
  void materialize(std::span<const Label> labels);
  /// Binary search the flat bucket table; kNoBucket on a miss or an empty
  /// bucket.
  [[nodiscard]] std::size_t view_bucket(std::uint64_t hash) const {
    const auto it =
        std::lower_bound(flat_.bucket_hashes.begin(), flat_.bucket_hashes.end(), hash);
    if (it == flat_.bucket_hashes.end() || *it != hash) return kNoBucket;
    const auto b = static_cast<std::size_t>(it - flat_.bucket_hashes.begin());
    return flat_.bucket_offsets[b] == flat_.bucket_offsets[b + 1] ? kNoBucket : b;
  }

  const homoglyph::HomoglyphDb* db_ = nullptr;
  std::uint64_t hash_mask_ = ~0ULL;
  /// Hash -> entries bucketed under it, ascending.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
  std::size_t non_empty_buckets_ = 0;
  /// Hash currently keying each entry's bucket slot.
  std::vector<std::uint64_t> entry_hashes_;
  /// Raw code point -> entries whose label contains it (deduplicated,
  /// ascending). Keys are raw code points, not canonical representatives,
  /// so the postings stay valid across database updates.
  std::unordered_map<unicode::CodePoint, std::vector<std::uint32_t>> entries_by_cp_;

  /// View mode: probes binary-search these mapped arrays instead of the
  /// hash map (empty until adopt_view; cleared by materialize()).
  bool view_ = false;
  db::SkeletonFlatView flat_;
  std::shared_ptr<const void> backing_;
};

}  // namespace sham::detect
