#include "detect/skeleton_index.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "kernels/kernels.hpp"

namespace sham::detect {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

template <typename Char>
constexpr unicode::CodePoint to_cp(Char c) noexcept {
  return static_cast<unicode::CodePoint>(static_cast<std::make_unsigned_t<Char>>(c));
}

// Label projections: IdnEntry hashes its decoded Unicode form; reference
// label lists hash as-is.
const unicode::U32String& label_of(const IdnEntry& entry) { return entry.unicode; }
const std::string& label_of(const std::string& label) { return label; }
const unicode::U32String& label_of(const unicode::U32String& label) { return label; }

/// Materialize the u32 stream the skeleton hash consumes: [length,
/// canonical(c)...]. The length prefix is just the first stream value, so
/// feeding this to fnv1a_span reproduces the historical hash bit-exactly.
template <typename String>
void canonical_stream(const homoglyph::HomoglyphDb& db, const String& label,
                    std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(label.size() + 1);
  out.push_back(static_cast<std::uint32_t>(label.size()));
  for (const auto c : label) out.push_back(db.canonical(to_cp(c)));
}

constexpr std::uint64_t hash_mask_of(const SkeletonIndexOptions& options) noexcept {
  return options.hash_bits >= 64 ? ~0ULL : (1ULL << options.hash_bits) - 1;
}

}  // namespace

template <typename String>
std::uint64_t SkeletonIndex::hash_impl(const String& label) const {
  // Length-prefixed so equal-hash buckets are (length, skeleton) buckets up
  // to genuine FNV collisions (which verification absorbs). The canonical
  // stream flows through the kernel in stack-buffer chunks — the chain
  // resumes from the previous flush's value, so chunking is exact (and the
  // path stays allocation-free and thread-safe for concurrent hash_of).
  std::array<std::uint32_t, 64> buf;
  std::size_t fill = 0;
  std::uint64_t h = kFnvOffset;
  buf[fill++] = static_cast<std::uint32_t>(label.size());
  for (const auto c : label) {
    if (fill == buf.size()) {
      h = kernels::fnv1a_span(h, buf.data(), fill);
      fill = 0;
    }
    buf[fill++] = db_->canonical(to_cp(c));
  }
  h = kernels::fnv1a_span(h, buf.data(), fill);
  return h & hash_mask_;
}

template <typename Label>
void SkeletonIndex::build(std::span<const Label> labels) {
  const std::size_t n = labels.size();
  entry_hashes_.resize(n);

  // Hash four labels per kernel call — four independent FNV chains, which
  // the dispatch table runs in SIMD lanes where available. Remainder
  // entries (< 4) go through the single-chain path; both produce the
  // identical historical hash.
  std::array<std::vector<std::uint32_t>, 4> streams;
  std::size_t x = 0;
  for (; x + 4 <= n; x += 4) {
    const std::uint32_t* ptrs[4];
    std::size_t lens[4];
    std::uint64_t seeds[4];
    std::uint64_t out[4];
    for (int c = 0; c < 4; ++c) {
      canonical_stream(*db_, label_of(labels[x + c]), streams[c]);
      ptrs[c] = streams[c].data();
      lens[c] = streams[c].size();
      seeds[c] = kFnvOffset;
    }
    kernels::fnv1a_batch4(ptrs, lens, seeds, out);
    for (int c = 0; c < 4; ++c) entry_hashes_[x + c] = out[c] & hash_mask_;
  }
  for (; x < n; ++x) entry_hashes_[x] = hash_impl(label_of(labels[x]));
  fill_buckets(labels);
}

template <typename Label>
void SkeletonIndex::fill_buckets(std::span<const Label> labels) {
  const std::size_t n = entry_hashes_.size();
  buckets_.clear();
  entries_by_cp_.clear();
  non_empty_buckets_ = 0;
  buckets_.reserve(n);
  std::vector<unicode::CodePoint> uniq;
  for (std::size_t y = 0; y < n; ++y) {
    auto& bucket = buckets_[entry_hashes_[y]];
    if (bucket.empty()) ++non_empty_buckets_;
    bucket.push_back(static_cast<std::uint32_t>(y));  // ascending

    uniq.clear();
    for (const auto c : label_of(labels[y])) uniq.push_back(to_cp(c));
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (const auto cp : uniq) {
      entries_by_cp_[cp].push_back(static_cast<std::uint32_t>(y));
    }
  }
}

template <typename Label>
void SkeletonIndex::materialize(std::span<const Label> labels) {
  if (!view_) return;
  // Rebuild the owned representation from the stored hashes, without any
  // rehashing. `labels` must be the list the flat index was built over
  // (the rehash_changed contract already requires this).
  entry_hashes_.assign(flat_.entry_hashes.begin(), flat_.entry_hashes.end());
  view_ = false;
  flat_ = {};
  backing_.reset();
  fill_buckets(labels);
}

template <typename Label>
std::size_t SkeletonIndex::rehash_impl(std::span<const Label> labels,
                                       std::span<const unicode::CodePoint> changed) {
  if (view_) materialize(labels);  // copy-on-write before the first mutation
  std::vector<std::uint32_t> affected;
  for (const auto cp : changed) {
    const auto it = entries_by_cp_.find(cp);
    if (it == entries_by_cp_.end()) continue;
    affected.insert(affected.end(), it->second.begin(), it->second.end());
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

  for (const auto x : affected) {
    const auto old_hash = entry_hashes_[x];
    const auto new_hash = hash_impl(label_of(labels[x]));
    if (new_hash == old_hash) continue;
    auto& old_bucket = buckets_[old_hash];
    old_bucket.erase(std::find(old_bucket.begin(), old_bucket.end(), x));
    if (old_bucket.empty()) --non_empty_buckets_;  // stays in the table, empty
    auto& new_bucket = buckets_[new_hash];
    if (new_bucket.empty()) ++non_empty_buckets_;
    new_bucket.insert(std::upper_bound(new_bucket.begin(), new_bucket.end(), x), x);
    entry_hashes_[x] = new_hash;
  }
  return affected.size();
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const IdnEntry> idns,
                             SkeletonIndexOptions options)
    : db_{&db}, hash_mask_{hash_mask_of(options)} {
  build(idns);
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const std::string> labels,
                             SkeletonIndexOptions options)
    : db_{&db}, hash_mask_{hash_mask_of(options)} {
  build(labels);
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const unicode::U32String> labels,
                             SkeletonIndexOptions options)
    : db_{&db}, hash_mask_{hash_mask_of(options)} {
  build(labels);
}

std::uint64_t SkeletonIndex::hash_of(std::string_view reference) const {
  return hash_impl(reference);
}

std::uint64_t SkeletonIndex::hash_of(const unicode::U32String& reference) const {
  return hash_impl(reference);
}

std::size_t SkeletonIndex::rehash_changed(std::span<const IdnEntry> labels,
                                          std::span<const unicode::CodePoint> changed) {
  return rehash_impl(labels, changed);
}

std::size_t SkeletonIndex::rehash_changed(std::span<const std::string> labels,
                                          std::span<const unicode::CodePoint> changed) {
  return rehash_impl(labels, changed);
}

std::size_t SkeletonIndex::rehash_changed(std::span<const unicode::U32String> labels,
                                          std::span<const unicode::CodePoint> changed) {
  return rehash_impl(labels, changed);
}

db::SkeletonFlat SkeletonIndex::to_flat() const {
  db::SkeletonFlat flat;
  if (view_) {
    // Already flat: copy the mapped arrays verbatim.
    flat.hash_mask = flat_.hash_mask;
    flat.non_empty_buckets = flat_.non_empty_buckets;
    flat.entry_hashes.assign(flat_.entry_hashes.begin(), flat_.entry_hashes.end());
    flat.bucket_hashes.assign(flat_.bucket_hashes.begin(), flat_.bucket_hashes.end());
    flat.bucket_offsets.assign(flat_.bucket_offsets.begin(), flat_.bucket_offsets.end());
    flat.bucket_entries.assign(flat_.bucket_entries.begin(), flat_.bucket_entries.end());
    return flat;
  }

  flat.hash_mask = hash_mask_;
  flat.non_empty_buckets = static_cast<std::uint64_t>(non_empty_buckets_);
  flat.entry_hashes = entry_hashes_;

  // Deterministic layout: buckets ascending by hash (empty buckets left by
  // rehash_changed are dropped — view_bucket treats absence as a miss).
  flat.bucket_hashes.reserve(buckets_.size());
  for (const auto& [h, bucket] : buckets_) {
    if (!bucket.empty()) flat.bucket_hashes.push_back(h);
  }
  std::sort(flat.bucket_hashes.begin(), flat.bucket_hashes.end());
  flat.bucket_offsets.reserve(flat.bucket_hashes.size() + 1);
  flat.bucket_offsets.push_back(0);
  flat.bucket_entries.reserve(entry_hashes_.size());
  for (const auto h : flat.bucket_hashes) {
    const auto& bucket = buckets_.at(h);
    flat.bucket_entries.insert(flat.bucket_entries.end(), bucket.begin(), bucket.end());
    flat.bucket_offsets.push_back(static_cast<std::uint32_t>(flat.bucket_entries.size()));
  }
  return flat;
}

SkeletonIndex SkeletonIndex::adopt_view(const homoglyph::HomoglyphDb& db,
                                        const db::SkeletonFlatView& flat,
                                        std::shared_ptr<const void> backing) {
  const auto bad = [](const char* what) {
    throw std::runtime_error(std::string{"SkeletonIndex: flat view "} + what);
  };
  const std::size_t n = flat.entry_hashes.size();
  const std::size_t buckets = flat.bucket_hashes.size();
  if (flat.bucket_offsets.size() != buckets + 1) {
    bad("bucket offset table size mismatch");
  }
  if (!std::is_sorted(flat.bucket_hashes.begin(), flat.bucket_hashes.end()) ||
      std::adjacent_find(flat.bucket_hashes.begin(), flat.bucket_hashes.end()) !=
          flat.bucket_hashes.end()) {
    bad("bucket hashes not strictly ascending");
  }
  if (!std::is_sorted(flat.bucket_offsets.begin(), flat.bucket_offsets.end()) ||
      flat.bucket_offsets.front() != 0 ||
      flat.bucket_offsets.back() != flat.bucket_entries.size()) {
    bad("bucket offsets inconsistent");
  }
  // Every entry sits in exactly one bucket, the one keyed by its own hash:
  // materialize() rebuilds the buckets from entry_hashes alone, so any
  // other filing would answer probes differently after the first update,
  // and an entry listed twice would be reported twice.
  std::vector<bool> filed(n, false);
  std::size_t non_empty = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto first = flat.bucket_offsets[b];
    const auto last = flat.bucket_offsets[b + 1];
    if (first != last) ++non_empty;
    for (auto i = first; i < last; ++i) {
      const auto x = flat.bucket_entries[i];
      if (x >= n) bad("bucket entry out of range");
      if (filed[x]) bad("entry listed in more than one bucket slot");
      filed[x] = true;
      if (flat.entry_hashes[x] != flat.bucket_hashes[b]) {
        bad("entry filed under a hash other than its own");
      }
    }
  }
  // No entry is listed twice, so a short entry list means a missing one.
  if (flat.bucket_entries.size() != n) bad("entry in no bucket");
  if (flat.non_empty_buckets != non_empty) {
    bad("non-empty bucket count disagrees with the buckets");
  }

  SkeletonIndex index;
  index.db_ = &db;
  index.hash_mask_ = flat.hash_mask;
  index.non_empty_buckets_ = non_empty;
  index.view_ = true;
  index.flat_ = flat;
  index.backing_ = std::move(backing);
  return index;
}

std::vector<std::uint64_t> SkeletonIndex::occupancy_histogram(
    std::size_t max_slots) const {
  std::vector<std::uint64_t> histogram(max_slots, 0);
  if (max_slots == 0) return histogram;
  const auto count = [&](std::size_t size) {
    // Vacated buckets (rehash_changed moved every entry out) stay in the
    // table; size - 1 would underflow for them.
    if (size != 0) ++histogram[std::min(size - 1, max_slots - 1)];
  };
  if (view_) {
    for (std::size_t b = 0; b < flat_.bucket_hashes.size(); ++b) {
      count(flat_.bucket_offsets[b + 1] - flat_.bucket_offsets[b]);
    }
  } else {
    for (const auto& [h, bucket] : buckets_) count(bucket.size());
  }
  return histogram;
}

}  // namespace sham::detect
