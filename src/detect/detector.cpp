#include "detect/detector.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace sham::detect {

namespace {

template <typename RefString>
bool match_impl(const homoglyph::HomoglyphDb& db, const RefString& reference,
                const unicode::U32String& idn, std::vector<DiffChar>* diffs) {
  if (reference.size() != idn.size()) return false;
  if (diffs != nullptr) diffs->clear();
  bool any_diff = false;
  for (std::size_t i = 0; i < idn.size(); ++i) {
    const auto ref_char = static_cast<unicode::CodePoint>(
        static_cast<std::make_unsigned_t<typename RefString::value_type>>(reference[i]));
    const auto idn_char = idn[i];
    if (ref_char == idn_char) continue;
    const auto source = db.source_of(idn_char, ref_char);
    if (!source) return false;
    any_diff = true;
    if (diffs != nullptr) diffs->push_back({i, idn_char, ref_char, *source});
  }
  return any_diff;
}

}  // namespace

bool HomographDetector::match_pair(std::string_view reference,
                                   const unicode::U32String& idn,
                                   std::vector<DiffChar>* diffs) const {
  return match_impl(*db_, reference, idn, diffs);
}

bool HomographDetector::match_pair(const unicode::U32String& reference,
                                   const unicode::U32String& idn,
                                   std::vector<DiffChar>* diffs) const {
  return match_impl(*db_, reference, idn, diffs);
}

std::string DetectionStats::to_json(int indent) const {
  util::JsonWriter w{indent};
  w.begin_object();
  w.field("schema_version", kSchemaVersion);
  w.field("seconds", seconds);
  w.field("length_bucket_hits", length_bucket_hits);
  w.field("char_comparisons", char_comparisons);
  w.field("match_seconds", match_seconds);
  w.field("merge_seconds", merge_seconds);
  w.field("threads_used", static_cast<std::uint64_t>(threads_used));
  w.field("shards_used", static_cast<std::uint64_t>(shards_used));
  w.key("shard_candidates").begin_array();
  for (const auto c : shard_candidates) w.value(c);
  w.end_array();
  w.field("skeleton_build_seconds", skeleton_build_seconds);
  w.field("skeleton_candidates", skeleton_candidates);
  w.field("skeleton_rejected", skeleton_rejected);
  w.field("skeleton_rejection_rate", skeleton_rejection_rate());
  w.field("skeleton_buckets", static_cast<std::uint64_t>(skeleton_buckets));
  w.key("skeleton_bucket_histogram").begin_array();
  for (const auto n : skeleton_bucket_histogram) w.value(n);
  w.end_array();
  w.field("index_cache_hits", index_cache_hits);
  w.field("index_cache_rebuilds", index_cache_rebuilds);
  w.field("index_cache_updates", index_cache_updates);
  w.field("index_entries_rehashed", index_entries_rehashed);
  w.field("index_update_seconds", index_update_seconds);
  w.field("result_cache_hits", result_cache_hits);
  w.field("result_cache_entries", result_cache_entries);
  w.field("db_generation", db_generation);
  w.field("index_generation", index_generation);
  w.field("inverted_join", inverted_join);
  w.end_object();
  return w.str();
}

std::vector<Match> detect_by_skeleton(const unicode::ConfusablesDb& uc,
                                      std::span<const std::string> references,
                                      std::span<const IdnEntry> idns,
                                      DetectionStats* stats) {
  util::Stopwatch watch;
  DetectionStats local;

  std::unordered_map<std::string, std::vector<std::size_t>> ref_by_skeleton;
  for (std::size_t r = 0; r < references.size(); ++r) {
    unicode::U32String u;
    u.reserve(references[r].size());
    for (const char c : references[r]) {
      u.push_back(static_cast<unsigned char>(c));
    }
    const auto skel = uc.skeleton(u);
    std::string k;
    for (const auto cp : skel) {
      k += std::to_string(cp);
      k += ',';
    }
    ref_by_skeleton[k].push_back(r);
  }

  std::vector<Match> matches;
  for (std::size_t x = 0; x < idns.size(); ++x) {
    const auto skel = uc.skeleton(idns[x].unicode);
    std::string k;
    for (const auto cp : skel) {
      k += std::to_string(cp);
      k += ',';
    }
    const auto it = ref_by_skeleton.find(k);
    if (it == ref_by_skeleton.end()) continue;
    for (const auto r : it->second) {
      // Skip identical strings (a registered ASCII name is not an IDN, but
      // guard against caller-supplied duplicates).
      ++local.length_bucket_hits;
      matches.push_back({r, x, {}});
    }
  }
  local.seconds = watch.seconds();
  if (stats != nullptr) *stats = local;
  return matches;
}

}  // namespace sham::detect
