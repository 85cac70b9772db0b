#include "db/artifact.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "db/mapped_file.hpp"

namespace sham::db {

namespace {

static_assert(std::is_trivially_copyable_v<simchar::HomoglyphPair> &&
                  sizeof(simchar::HomoglyphPair) == 12,
              "SIMC section serializes HomoglyphPair raw");

/// Append-only payload builder whose alignment padding mirrors SpanReader
/// exactly: sections start 64-byte aligned in the file, so padding to a
/// multiple of `a` (a <= 64, a | 64) relative to the payload start equals
/// the reader's absolute-address alignment.
class Payload {
 public:
  void align(std::size_t a) {
    while (bytes_.size() % a != 0) bytes_.push_back(std::byte{0});
  }

  template <typename T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&value, sizeof(T));
  }

  template <typename T>
  void array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    align(alignof(T));
    append(values.data(), values.size() * sizeof(T));
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return bytes_;
  }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<std::byte> bytes_;
};

Payload simchar_payload(const simchar::SimCharDb& db) {
  const auto flat = db.flat();
  Payload out;
  out.scalar<std::uint64_t>(flat.pairs.size());
  out.scalar<std::uint64_t>(flat.chars.size());
  out.array(flat.pairs);
  out.array(flat.chars);
  out.array(flat.offsets);
  out.array(flat.postings);
  return out;
}

Payload homoglyph_payload(const homoglyph::HomoglyphDb& db) {
  const auto flat = db.to_flat();
  Payload out;
  out.scalar<std::uint64_t>(flat.generation);
  out.scalar<std::uint64_t>(flat.pair_keys.size());
  out.scalar<std::uint64_t>(flat.adj_cps.size());
  out.scalar<std::uint64_t>(flat.adj_data.size());
  out.scalar<std::uint64_t>(flat.canon_keys.size());
  out.scalar<std::uint32_t>(flat.canonical_classes);
  out.scalar<std::uint32_t>(flat.config_flags);
  out.array(std::span<const std::uint64_t>{flat.pair_keys});
  out.array(std::span<const std::uint8_t>{flat.pair_sources});
  out.array(std::span<const std::uint32_t>{flat.adj_cps});
  out.array(std::span<const std::uint32_t>{flat.adj_offsets});
  out.array(std::span<const std::uint32_t>{flat.adj_data});
  out.array(std::span<const std::uint32_t>{flat.canon_keys});
  out.array(std::span<const std::uint32_t>{flat.canon_reps});
  return out;
}

Payload references_payload(std::span<const std::string> references) {
  Payload out;
  out.scalar<std::uint64_t>(references.size());
  std::vector<std::uint64_t> offsets;
  offsets.reserve(references.size() + 1);
  std::uint64_t offset = 0;
  offsets.push_back(0);
  for (const auto& ref : references) {
    offset += ref.size();
    offsets.push_back(offset);
  }
  out.array(std::span<const std::uint64_t>{offsets});
  std::vector<std::uint8_t> blob;
  blob.reserve(static_cast<std::size_t>(offset));
  for (const auto& ref : references) {
    blob.insert(blob.end(), ref.begin(), ref.end());
  }
  out.array(std::span<const std::uint8_t>{blob});
  return out;
}

/// SKEL keeps its format-v1 field order. The retired fields described the
/// secondary-hash bucket splitting (max_bucket_occupancy, split_buckets,
/// entry_h2, bucket_child_start, child_h2, child_offsets, child_entries);
/// they are written empty, so readers of either age load the other's files.
Payload skeleton_payload(const SkeletonFlat& flat) {
  const std::vector<std::uint32_t> no_children(flat.bucket_hashes.size() + 1, 0);
  Payload out;
  out.scalar<std::uint64_t>(flat.hash_mask);
  out.scalar<std::uint64_t>(0);  // max_bucket_occupancy
  out.scalar<std::uint64_t>(flat.non_empty_buckets);
  out.scalar<std::uint64_t>(0);  // split_buckets
  out.scalar<std::uint64_t>(flat.entry_hashes.size());
  out.scalar<std::uint64_t>(0);  // entry_h2 count
  out.scalar<std::uint64_t>(flat.bucket_hashes.size());
  out.array(std::span<const std::uint64_t>{flat.entry_hashes});
  out.array(std::span<const std::uint64_t>{});  // entry_h2
  out.array(std::span<const std::uint64_t>{flat.bucket_hashes});
  out.array(std::span<const std::uint32_t>{flat.bucket_offsets});
  out.array(std::span<const std::uint32_t>{flat.bucket_entries});
  out.array(std::span<const std::uint32_t>{no_children});           // bucket_child_start
  out.array(std::span<const std::uint64_t>{});                      // child_h2
  out.array(std::span<const std::uint32_t>{no_children}.first(1));  // child_offsets
  out.array(std::span<const std::uint32_t>{});                      // child_entries
  return out;
}

/// The staging file write_db_file publishes: a sibling of the target with
/// a name no other writer uses (pid plus a process-wide counter, created
/// O_EXCL), so concurrent writers to one path never share it. Until
/// publish() renames it over the target, the destructor closes and
/// removes it, so no failure path leaves it behind. Mode 0666 & ~umask,
/// like any new file: a serving process running as another user must be
/// able to map the artifact.
class StagingFile {
 public:
  explicit StagingFile(const std::string& path) {
    static std::atomic<std::uint64_t> counter{0};
    for (int attempt = 0; attempt < 64; ++attempt) {
      tmp_ = path + ".tmp." + std::to_string(::getpid()) + "." +
             std::to_string(counter.fetch_add(1));
      fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
      if (fd_ >= 0 || errno != EEXIST) break;
    }
    if (fd_ < 0) fail("cannot create");
  }
  ~StagingFile() {
    if (fd_ >= 0) ::close(fd_);
    if (!published_) ::unlink(tmp_.c_str());
  }
  StagingFile(const StagingFile&) = delete;
  StagingFile& operator=(const StagingFile&) = delete;

  void write(const void* data, std::size_t n) {
    const auto* p = static_cast<const char*>(data);
    while (n > 0) {
      const ssize_t wrote = ::write(fd_, p, n);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        fail("cannot write");
      }
      p += wrote;
      n -= static_cast<std::size_t>(wrote);
    }
  }

  /// fsync, then rename over `path`: readers never map a half-written
  /// artifact, and a crash after the rename cannot land the new name on
  /// unwritten data (rename alone does not order the data against the
  /// metadata).
  void publish(const std::string& path) {
    if (::fsync(fd_) != 0) fail("cannot fsync");
    const int closed = ::close(fd_);
    fd_ = -1;
    if (closed != 0) fail("cannot close");
    if (std::rename(tmp_.c_str(), path.c_str()) != 0) {
      fail("cannot rename", path);
    }
    published_ = true;
  }

 private:
  /// Throws "<what> <staging file>[ to <target>]: <errno text>".
  [[noreturn]] void fail(const char* what, const std::string& target = {}) const {
    const int err = errno;
    throw std::runtime_error{std::string{"write_db_file: "} + what + " " + tmp_ +
                             (target.empty() ? "" : " to " + target) + ": " +
                             std::strerror(err)};
  }

  std::string tmp_;
  int fd_ = -1;
  bool published_ = false;
};

}  // namespace

void write_db_file(const std::string& path, const WriteRequest& request) {
  if (request.simchar == nullptr || request.homoglyph == nullptr) {
    throw std::invalid_argument{
        "write_db_file: simchar and homoglyph databases are mandatory"};
  }
  if (request.skeleton != nullptr && request.references.empty()) {
    throw std::invalid_argument{
        "write_db_file: a skeleton section requires the reference labels it "
        "indexes"};
  }

  std::vector<std::pair<std::uint32_t, Payload>> sections;
  sections.emplace_back(kSecSimChar, simchar_payload(*request.simchar));
  sections.emplace_back(kSecHomoglyph, homoglyph_payload(*request.homoglyph));
  if (!request.references.empty()) {
    sections.emplace_back(kSecReferences, references_payload(request.references));
  }
  if (request.skeleton != nullptr) {
    sections.emplace_back(kSecSkeleton, skeleton_payload(*request.skeleton));
  }

  FileHeader header;
  header.generation = request.homoglyph->generation();
  header.section_count = static_cast<std::uint32_t>(sections.size());
  header.header_bytes = sizeof(FileHeader);
  header.reference_fingerprint =
      request.references.empty() ? 0 : request.reference_fingerprint;

  std::vector<SectionEntry> table(sections.size());
  std::uint64_t offset = sizeof(FileHeader) + table.size() * sizeof(SectionEntry);
  for (std::size_t s = 0; s < sections.size(); ++s) {
    offset = (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
    const auto& payload = sections[s].second.bytes();
    table[s].tag = sections[s].first;
    table[s].offset = offset;
    table[s].size = payload.size();
    table[s].checksum = fnv1a64(payload.data(), payload.size());
    offset += payload.size();
  }
  header.file_size = offset;
  header.section_table_checksum =
      fnv1a64(table.data(), table.size() * sizeof(SectionEntry));
  header.header_checksum = fnv1a64(&header, sizeof(FileHeader) - sizeof(std::uint64_t));

  StagingFile out{path};
  out.write(&header, sizeof(header));
  out.write(table.data(), table.size() * sizeof(SectionEntry));
  std::uint64_t pos = sizeof(FileHeader) + table.size() * sizeof(SectionEntry);
  static constexpr char kPad[kSectionAlign] = {};
  for (std::size_t s = 0; s < sections.size(); ++s) {
    out.write(kPad, static_cast<std::size_t>(table[s].offset - pos));
    const auto& payload = sections[s].second.bytes();
    out.write(payload.data(), payload.size());
    pos = table[s].offset + table[s].size;
  }
  out.publish(path);

  // Best-effort directory sync so the rename itself is durable; some
  // filesystems refuse fsync on a directory fd, which is not an error the
  // (already readable) artifact should fail on.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

// --- Loader ---------------------------------------------------------------

namespace {

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error{"db artifact: " + path + ": " + what};
}

template <typename T>
void require_ascending_unique(std::span<const T> values, SpanReader& r,
                              const char* what) {
  if (!std::is_sorted(values.begin(), values.end()) ||
      std::adjacent_find(values.begin(), values.end()) != values.end()) {
    r.fail(std::string{what} + " not strictly ascending");
  }
}

/// Offsets table: monotonic, starts at 0, ends at `total`.
void require_offsets(std::span<const std::uint32_t> offsets, std::uint64_t total,
                     SpanReader& r, const char* what) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    r.fail(std::string{what} + " offsets inconsistent");
  }
}

simchar::SimCharDb::Flat parse_simchar(SpanReader r) {
  const auto pair_count = r.scalar<std::uint64_t>();
  const auto char_count = r.scalar<std::uint64_t>();
  simchar::SimCharDb::Flat flat;
  flat.pairs = r.array<simchar::HomoglyphPair>(pair_count);
  flat.chars = r.array<std::uint32_t>(char_count);
  flat.offsets = r.array<std::uint32_t>(char_count + 1);
  flat.postings = r.array<std::uint32_t>(2 * pair_count);
  if (r.remaining() != 0) r.fail("trailing bytes");
  require_ascending_unique(flat.chars, r, "chars");
  require_offsets(flat.offsets, flat.postings.size(), r, "posting");
  for (const auto p : flat.postings) {
    if (p >= pair_count) r.fail("posting index out of range");
  }
  for (const auto& pair : flat.pairs) {
    if (pair.a >= pair.b) r.fail("pair not in canonical a < b order");
  }
  return flat;
}

homoglyph::HomoglyphDb::FlatView parse_homoglyph(SpanReader r,
                                                 std::uint64_t generation) {
  homoglyph::HomoglyphDb::FlatView flat;
  flat.generation = r.scalar<std::uint64_t>();
  const auto pair_count = r.scalar<std::uint64_t>();
  const auto adj_cp_count = r.scalar<std::uint64_t>();
  const auto adj_data_count = r.scalar<std::uint64_t>();
  const auto canon_count = r.scalar<std::uint64_t>();
  flat.canonical_classes = r.scalar<std::uint32_t>();
  flat.config_flags = r.scalar<std::uint32_t>();
  flat.pair_keys = r.array<std::uint64_t>(pair_count);
  flat.pair_sources = r.array<std::uint8_t>(pair_count);
  flat.adj_cps = r.array<std::uint32_t>(adj_cp_count);
  flat.adj_offsets = r.array<std::uint32_t>(adj_cp_count + 1);
  flat.adj_data = r.array<std::uint32_t>(adj_data_count);
  flat.canon_keys = r.array<std::uint32_t>(canon_count);
  flat.canon_reps = r.array<std::uint32_t>(canon_count);
  if (r.remaining() != 0) r.fail("trailing bytes");
  if (flat.generation != generation) {
    r.fail("generation disagrees with the header stamp");
  }
  require_ascending_unique(flat.pair_keys, r, "pair keys");
  require_ascending_unique(flat.adj_cps, r, "adjacency characters");
  require_ascending_unique(flat.canon_keys, r, "canonical keys");
  require_offsets(flat.adj_offsets, flat.adj_data.size(), r, "adjacency");
  for (const auto s : flat.pair_sources) {
    if (s < 1 || s > 3) r.fail("pair provenance out of range");
  }
  return flat;
}

std::vector<std::string> parse_references(SpanReader r) {
  const auto count = r.scalar<std::uint64_t>();
  // `count + 1` must not wrap: with count == UINT64_MAX the sum is 0, the
  // array bound check passes on an empty span, and offsets.back() below
  // reads out of bounds. Every real count also needs 8 offset bytes per
  // label inside the section, so anything the wrap check passes is then
  // bounded by the array call itself.
  if (count == std::numeric_limits<std::uint64_t>::max()) {
    r.fail("reference count overflow");
  }
  const auto offsets = r.array<std::uint64_t>(count + 1);
  const auto blob = r.array<std::uint8_t>(offsets.back());
  if (r.remaining() != 0) r.fail("trailing bytes");
  if (offsets.front() != 0 || !std::is_sorted(offsets.begin(), offsets.end())) {
    r.fail("label offsets inconsistent");
  }
  std::vector<std::string> references;
  references.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    references.emplace_back(
        reinterpret_cast<const char*>(blob.data()) + offsets[i],
        static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
  }
  return references;
}

SkeletonFlatView parse_skeleton(SpanReader r) {
  // Reads the retired fields of skeleton_payload past, bounds-checked. An
  // older writer's split children only repeat entries of their bucket, so
  // ignoring them loses nothing.
  SkeletonFlatView flat;
  flat.hash_mask = r.scalar<std::uint64_t>();
  (void)r.scalar<std::uint64_t>();  // max_bucket_occupancy
  flat.non_empty_buckets = r.scalar<std::uint64_t>();
  (void)r.scalar<std::uint64_t>();  // split_buckets
  const auto entry_count = r.scalar<std::uint64_t>();
  const auto h2_count = r.scalar<std::uint64_t>();
  const auto bucket_count = r.scalar<std::uint64_t>();
  flat.entry_hashes = r.array<std::uint64_t>(entry_count);
  (void)r.array<std::uint64_t>(h2_count);  // entry_h2
  flat.bucket_hashes = r.array<std::uint64_t>(bucket_count);
  flat.bucket_offsets = r.array<std::uint32_t>(bucket_count + 1);
  flat.bucket_entries = r.array<std::uint32_t>(flat.bucket_offsets.back());
  const auto child_start = r.array<std::uint32_t>(bucket_count + 1);
  const auto child_h2 = r.array<std::uint64_t>(child_start.back());
  const auto child_offsets = r.array<std::uint32_t>(child_h2.size() + 1);
  (void)r.array<std::uint32_t>(child_offsets.back());  // child_entries
  if (r.remaining() != 0) r.fail("trailing bytes");
  // Full structural validation (offset monotonicity, entry ranges, bucket
  // ordering, one bucket per entry) happens in
  // detect::SkeletonIndex::adopt_view — the arrays here are bounds-correct
  // spans either way.
  return flat;
}

}  // namespace

DbArtifact DbArtifact::load(const std::string& path) {
  DbArtifact artifact;
  artifact.map_ = MappedFile::open(path);
  const auto* base = artifact.map_->data();
  const auto size = artifact.map_->size();

  if (size < sizeof(FileHeader)) corrupt(path, "smaller than the file header");
  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kMagic) corrupt(path, "bad magic (not a ShamFinder DB)");
  if (header.endian != kEndianMarker) {
    corrupt(path, "endianness mismatch (artifact written on a foreign host)");
  }
  if (header.format_version != kFormatVersion) {
    corrupt(path, "unsupported format version " +
                      std::to_string(header.format_version) + " (reader supports " +
                      std::to_string(kFormatVersion) + ")");
  }
  if (header.header_bytes != sizeof(FileHeader)) {
    corrupt(path, "header size mismatch");
  }
  if (header.header_checksum !=
      fnv1a64(base, sizeof(FileHeader) - sizeof(std::uint64_t))) {
    corrupt(path, "header checksum mismatch");
  }
  if (header.file_size != size) {
    corrupt(path, "file size mismatch (truncated or padded artifact)");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{header.section_count} * sizeof(SectionEntry);
  if (table_bytes > size - sizeof(FileHeader)) {
    corrupt(path, "section table exceeds the file");
  }
  const auto* table_base = base + sizeof(FileHeader);
  if (header.section_table_checksum !=
      fnv1a64(table_base, static_cast<std::size_t>(table_bytes))) {
    corrupt(path, "section table checksum mismatch");
  }
  artifact.header_ = header;

  bool seen_simchar = false;
  bool seen_homoglyph = false;
  bool seen_references = false;
  bool seen_skeleton = false;
  for (std::uint32_t s = 0; s < header.section_count; ++s) {
    SectionEntry entry;
    std::memcpy(&entry, table_base + s * sizeof(SectionEntry), sizeof(entry));
    if (entry.offset % kSectionAlign != 0) {
      corrupt(path, "section " + std::to_string(s) + " is misaligned");
    }
    if (entry.offset > size || entry.size > size - entry.offset) {
      corrupt(path, "section " + std::to_string(s) + " exceeds the file");
    }
    const auto* payload = base + entry.offset;
    if (entry.checksum != fnv1a64(payload, static_cast<std::size_t>(entry.size))) {
      corrupt(path, "section " + std::to_string(s) + " checksum mismatch");
    }
    SpanReader reader{payload, static_cast<std::size_t>(entry.size),
                      std::to_string(s)};
    switch (entry.tag) {
      case kSecSimChar:
        if (seen_simchar) corrupt(path, "duplicate SIMC section");
        seen_simchar = true;
        artifact.simchar_ = parse_simchar(std::move(reader));
        break;
      case kSecHomoglyph:
        if (seen_homoglyph) corrupt(path, "duplicate HGDB section");
        seen_homoglyph = true;
        artifact.homoglyph_ = parse_homoglyph(std::move(reader), header.generation);
        break;
      case kSecReferences:
        if (seen_references) corrupt(path, "duplicate REFS section");
        seen_references = true;
        artifact.references_ = parse_references(std::move(reader));
        break;
      case kSecSkeleton:
        if (seen_skeleton) corrupt(path, "duplicate SKEL section");
        seen_skeleton = true;
        artifact.skeleton_ = parse_skeleton(std::move(reader));
        artifact.has_skeleton_ = true;
        break;
      default:
        // Unknown or retired tag (an older writer's GPAN): skipped, its
        // checksum verified above.
        break;
    }
  }
  if (!seen_simchar || !seen_homoglyph) {
    corrupt(path, "missing mandatory SIMC/HGDB section");
  }
  // Cross-section trust checks. Checksums only prove self-consistency (an
  // attacker computes them like anyone else), so the SKEL section must be
  // pinned to the REFS labels it indexes: entries are indexes into the
  // reference list, and a skeleton larger than the list would hand detect()
  // out-of-bounds reference indexes, not just wrong answers. Likewise a
  // fingerprint stamped with no labels describes nothing.
  if (artifact.has_skeleton_) {
    if (artifact.references_.empty()) {
      corrupt(path, "SKEL section without the REFS labels it indexes");
    }
    if (artifact.skeleton_.entry_hashes.size() != artifact.references_.size()) {
      corrupt(path, "skeleton entry count disagrees with the reference list");
    }
  }
  if (artifact.references_.empty() && header.reference_fingerprint != 0) {
    corrupt(path, "reference fingerprint stamped without a REFS section");
  }
  return artifact;
}

std::size_t DbArtifact::file_size() const noexcept { return map_->size(); }

simchar::SimCharDb DbArtifact::simchar() const {
  return simchar::SimCharDb::adopt_view(simchar_, map_);
}

homoglyph::HomoglyphDb DbArtifact::homoglyph() const {
  return homoglyph::HomoglyphDb::adopt_view(homoglyph_, map_);
}

}  // namespace sham::db
