#include "detect/skeleton_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace sham::detect {

namespace {

template <typename Char>
constexpr unicode::CodePoint to_cp(Char c) noexcept {
  return static_cast<unicode::CodePoint>(static_cast<std::make_unsigned_t<Char>>(c));
}

// Label projections: IdnEntry hashes its decoded Unicode form; reference
// label lists hash as-is.
const unicode::U32String& label_of(const IdnEntry& entry) { return entry.unicode; }
const std::string& label_of(const std::string& label) { return label; }
const unicode::U32String& label_of(const unicode::U32String& label) { return label; }

/// The skeleton hash. It is a data format — the artifact's SKEL section
/// stores it — and this is its only definition: FNV-1a 64 over the u32
/// stream [length, canonical(c)...], each value fed as its four bytes,
/// low byte first. The length prefix makes equal-hash buckets (length,
/// skeleton) buckets up to genuine FNV collisions, which verification
/// absorbs.
template <typename String>
std::uint64_t skeleton_hash(const homoglyph::HomoglyphDb& db, const String& label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      h = (h ^ ((value >> shift) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  feed(static_cast<std::uint32_t>(label.size()));
  for (const auto c : label) feed(db.canonical(to_cp(c)));
  return h;
}

constexpr std::uint64_t hash_mask_of(const SkeletonIndexOptions& options) noexcept {
  return options.hash_bits >= 64 ? ~0ULL : (1ULL << options.hash_bits) - 1;
}

}  // namespace

template <typename String>
std::uint64_t SkeletonIndex::hash_impl(const String& label) const {
  return skeleton_hash(*db_, label) & arrays_.hash_mask;
}

template <typename Label>
void SkeletonIndex::build(std::span<const Label> labels) {
  auto flat = std::make_shared<db::SkeletonFlat>();
  flat->hash_mask = arrays_.hash_mask;
  flat->entry_hashes.reserve(labels.size());
  for (const auto& label : labels) {
    flat->entry_hashes.push_back(hash_impl(label_of(label)));
  }
  attach_buckets(std::move(flat));
}

void SkeletonIndex::attach_buckets(std::shared_ptr<db::SkeletonFlat> flat) {
  // Entries sorted by (hash, entry): buckets ascending by hash, entries
  // ascending within a bucket, no empty buckets.
  const std::size_t n = flat->entry_hashes.size();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> filed(n);
  for (std::size_t x = 0; x < n; ++x) {
    filed[x] = {flat->entry_hashes[x], static_cast<std::uint32_t>(x)};
  }
  std::sort(filed.begin(), filed.end());
  flat->bucket_hashes.clear();
  flat->bucket_offsets.clear();
  flat->bucket_entries.clear();
  flat->bucket_entries.reserve(n);
  for (const auto& [h, x] : filed) {
    if (flat->bucket_hashes.empty() || flat->bucket_hashes.back() != h) {
      flat->bucket_hashes.push_back(h);
      flat->bucket_offsets.push_back(static_cast<std::uint32_t>(flat->bucket_entries.size()));
    }
    flat->bucket_entries.push_back(x);
  }
  flat->bucket_offsets.push_back(static_cast<std::uint32_t>(flat->bucket_entries.size()));
  flat->non_empty_buckets = flat->bucket_hashes.size();

  arrays_ = {.hash_mask = flat->hash_mask,
             .non_empty_buckets = flat->non_empty_buckets,
             .entry_hashes = flat->entry_hashes,
             .bucket_hashes = flat->bucket_hashes,
             .bucket_offsets = flat->bucket_offsets,
             .bucket_entries = flat->bucket_entries};
  keepalive_ = std::move(flat);
  adopted_ = false;
}

template <typename Label>
std::size_t SkeletonIndex::rehash_impl(std::span<const Label> labels,
                                       std::span<const unicode::CodePoint> changed) {
  if (changed.empty()) return 0;
  // One bit per code point; anything above U+10FFFF, which no valid label
  // holds, falls back to a search.
  std::vector<bool> moved(unicode::kMaxCodePoint + 1);
  for (const auto cp : changed) {
    if (cp <= unicode::kMaxCodePoint) moved[cp] = true;
  }
  const auto is_affected = [&](auto c) {
    const auto cp = to_cp(c);
    return cp <= unicode::kMaxCodePoint ? moved[cp]
                                        : std::find(changed.begin(), changed.end(), cp) !=
                                              changed.end();
  };
  // Scan the labels for a changed code point; copy the hashes only once
  // one of them moves.
  std::size_t affected = 0;
  std::shared_ptr<db::SkeletonFlat> next;
  for (std::size_t x = 0; x < labels.size(); ++x) {
    const auto& label = label_of(labels[x]);
    if (std::none_of(label.begin(), label.end(), is_affected)) continue;
    ++affected;
    const auto new_hash = hash_impl(label);
    if (new_hash == arrays_.entry_hashes[x]) continue;
    if (next == nullptr) {
      next = std::make_shared<db::SkeletonFlat>();
      next->hash_mask = arrays_.hash_mask;
      next->entry_hashes.assign(arrays_.entry_hashes.begin(), arrays_.entry_hashes.end());
    }
    next->entry_hashes[x] = new_hash;
  }
  if (next != nullptr) attach_buckets(std::move(next));
  return affected;
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const IdnEntry> idns,
                             SkeletonIndexOptions options)
    : db_{&db} {
  arrays_.hash_mask = hash_mask_of(options);
  build(idns);
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const std::string> labels,
                             SkeletonIndexOptions options)
    : db_{&db} {
  arrays_.hash_mask = hash_mask_of(options);
  build(labels);
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const unicode::U32String> labels,
                             SkeletonIndexOptions options)
    : db_{&db} {
  arrays_.hash_mask = hash_mask_of(options);
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
  flat.hash_mask = arrays_.hash_mask;
  flat.non_empty_buckets = arrays_.non_empty_buckets;
  flat.entry_hashes.assign(arrays_.entry_hashes.begin(), arrays_.entry_hashes.end());
  flat.bucket_hashes.assign(arrays_.bucket_hashes.begin(), arrays_.bucket_hashes.end());
  flat.bucket_offsets.assign(arrays_.bucket_offsets.begin(), arrays_.bucket_offsets.end());
  flat.bucket_entries.assign(arrays_.bucket_entries.begin(), arrays_.bucket_entries.end());
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
  // rehash_changed() rebuilds the buckets from entry_hashes alone, so any
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
  index.arrays_ = flat;
  index.keepalive_ = std::move(backing);
  index.adopted_ = true;
  return index;
}

std::vector<std::uint64_t> SkeletonIndex::occupancy_histogram(
    std::size_t max_slots) const {
  std::vector<std::uint64_t> histogram(max_slots, 0);
  if (max_slots == 0) return histogram;
  const auto& offsets = arrays_.bucket_offsets;
  for (std::size_t b = 0; b < arrays_.bucket_hashes.size(); ++b) {
    // An adopted index may list empty buckets; size - 1 would underflow.
    const std::size_t size = offsets[b + 1] - offsets[b];
    if (size != 0) ++histogram[std::min(size - 1, max_slots - 1)];
  }
  return histogram;
}

}  // namespace sham::detect
