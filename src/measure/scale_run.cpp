#include "measure/scale_run.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "core/shamfinder.hpp"
#include "db/artifact.hpp"
#include "dns/zone_file.hpp"
#include "dns/zone_stream.hpp"
#include "idna/idna.hpp"
#include "unicode/confusables.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace sham::measure {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof v); }

[[nodiscard]] auto diff_tuple(const detect::DiffChar& d) {
  return std::tuple{d.index, d.idn_char, d.ref_char,
                    static_cast<std::uint8_t>(d.source)};
}

bool verdict_less(const Verdict& x, const Verdict& y) {
  if (x.reference_index != y.reference_index) {
    return x.reference_index < y.reference_index;
  }
  if (x.ace != y.ace) return x.ace < y.ace;
  return std::lexicographical_compare(
      x.diffs.begin(), x.diffs.end(), y.diffs.begin(), y.diffs.end(),
      [](const detect::DiffChar& a, const detect::DiffChar& b) {
        return diff_tuple(a) < diff_tuple(b);
      });
}

/// Sort, dedup, and fingerprint a verdict list — the one canonical form
/// every detection path is reduced to before comparison.
DetectionOutcome canonicalize_verdicts(std::vector<Verdict> verdicts) {
  std::sort(verdicts.begin(), verdicts.end(), verdict_less);
  verdicts.erase(std::unique(verdicts.begin(), verdicts.end()), verdicts.end());

  std::uint64_t h = kFnvOffset;
  for (const auto& v : verdicts) {
    fnv_u64(h, v.reference_index);
    fnv_u64(h, v.ace.size());
    fnv_bytes(h, v.ace.data(), v.ace.size());
    fnv_u64(h, v.diffs.size());
    for (const auto& d : v.diffs) {
      fnv_u64(h, d.index);
      fnv_u64(h, d.idn_char);
      fnv_u64(h, d.ref_char);
      fnv_u64(h, static_cast<std::uint8_t>(d.source));
    }
  }

  DetectionOutcome out;
  out.verdicts = std::move(verdicts);
  out.fingerprint = h;
  return out;
}

void append_verdicts(std::vector<Verdict>& out, std::span<const detect::Match> matches,
                     std::span<const detect::IdnEntry> idns) {
  for (const auto& m : matches) {
    Verdict v;
    v.reference_index = static_cast<std::uint32_t>(m.reference_index);
    v.ace = idns[m.idn_index].ace;
    v.diffs = m.diffs;
    out.push_back(std::move(v));
  }
}

/// Bounded MPSC/SPMC hand-off buffer: push blocks while full (the
/// backpressure that keeps producer memory bounded), pop blocks while
/// empty. close() drains remaining items to the consumers; abort() drops
/// everything and unblocks both sides (failure propagation).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_{std::max<std::size_t>(1, capacity)} {}

  /// False when the queue was aborted (a consumer failed).
  bool push(T item) {
    std::unique_lock lock{mutex_};
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || aborted_; });
    if (aborted_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// False when closed-and-drained or aborted.
  bool pop(T& out) {
    std::unique_lock lock{mutex_};
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_ || aborted_; });
    if (aborted_ || items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void close() {
    std::lock_guard lock{mutex_};
    closed_ = true;
    not_empty_.notify_all();
  }

  void abort() {
    std::lock_guard lock{mutex_};
    aborted_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::deque<T> items_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  bool closed_ = false;
  bool aborted_ = false;
};

/// Owner-name -> IdnEntry batching shared by the disk and generated
/// streams: consecutive-owner dedup, bounded pending/batch buffers, and
/// the periodic progress callback.
class IdnBatcher {
 public:
  IdnBatcher(const std::string& tld, const StreamOptions& options,
             const std::function<void(std::span<const detect::IdnEntry>)>& on_batch)
      : tld_{tld},
        suffix_{"." + tld},
        options_{&options},
        on_batch_{&on_batch},
        cap_{std::max<std::size_t>(1, options.batch_size)} {}

  void record(const dns::ResourceRecord& r) {
    ++stats_.records;
    const std::string_view owner = r.owner.str();
    // Registry zones group a delegation's records under one owner, so a
    // consecutive-duplicate check deduplicates almost everything; stray
    // repeats are harmless (verdicts are deduplicated canonically).
    if (owner == last_owner_) return;
    last_owner_.assign(owner);
    ++stats_.domains;
    // Copy and queue only the owners that pass extract_idns's own first two
    // tests (the ".<tld>" suffix, then the ACE prefix on what precedes it);
    // no other owner can yield an IdnEntry.
    if (owner.ends_with(suffix_) &&
        idna::is_a_label(owner.substr(0, owner.size() - suffix_.size()))) {
      pending_.emplace_back(owner);
      if (pending_.size() >= cap_) extract_pending();
    }
    if (options_->progress_interval != 0 && options_->on_progress &&
        stats_.domains % options_->progress_interval == 0) {
      // idns covers every owner seen so far, including the
      // extracted-but-undelivered tail.
      extract_pending();
      options_->on_progress({stats_.domains, stats_.idns + batch_.size(),
                             stats_.records, resident_kib()});
    }
  }

  /// Flush; call exactly once, after the last record.
  ZoneStreamStats finish() {
    extract_pending();
    deliver();
    return stats_;
  }

 private:
  void deliver() {
    if (batch_.empty()) return;
    stats_.idns += batch_.size();
    ++stats_.batches;
    (*on_batch_)(batch_);
    batch_.clear();
  }

  void extract_pending() {
    if (pending_.empty()) return;
    auto idns = core::ShamFinder::extract_idns(pending_, tld_);
    pending_.clear();
    for (auto& entry : idns) {
      batch_.push_back(std::move(entry));
      if (batch_.size() >= cap_) deliver();
    }
  }

  std::string tld_;
  std::string suffix_;  // "." + tld_
  const StreamOptions* options_;
  const std::function<void(std::span<const detect::IdnEntry>)>* on_batch_;
  std::size_t cap_;
  ZoneStreamStats stats_;
  std::vector<std::string> pending_;  // IDN candidates awaiting extraction
  std::vector<detect::IdnEntry> batch_;
  std::string last_owner_;
};

}  // namespace

std::size_t resident_kib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

ZoneStreamStats stream_zone_idns(
    const std::string& path, const StreamOptions& options,
    const std::function<void(std::span<const detect::IdnEntry>)>& on_batch) {
  IdnBatcher batcher{options.tld, options, on_batch};
  dns::parse_zone_file(path,
                       [&](const dns::ResourceRecord& r) { batcher.record(r); });
  return batcher.finish();
}

ZoneStreamStats stream_generated_idns(
    const homoglyph::HomoglyphDb& db, const GenStream& gen,
    const StreamOptions& options,
    const std::function<void(std::span<const detect::IdnEntry>)>& on_batch) {
  BoundedQueue<std::string> ring{gen.ring_chunks};
  std::exception_ptr generator_error;  // written before abort(), read after join

  std::thread generator{[&] {
    try {
      internet::ZoneTextStream stream{db, gen.scenario, gen.zone};
      std::string chunk;
      while (stream.next_chunk(chunk)) {
        if (!ring.push(std::move(chunk))) return;  // consumer aborted
        chunk.clear();
      }
      ring.close();
    } catch (...) {
      generator_error = std::current_exception();
      ring.abort();
    }
  }};

  ZoneStreamStats stats;
  std::exception_ptr consumer_error;
  try {
    IdnBatcher batcher{gen.zone.tld, options, on_batch};
    dns::ZoneStreamReader reader{
        [&](const dns::ResourceRecord& r) { batcher.record(r); }};
    std::string chunk;
    while (ring.pop(chunk)) reader.feed(chunk);
    reader.finish();
    stats = batcher.finish();
  } catch (...) {
    consumer_error = std::current_exception();
    ring.abort();  // unblock the generator if it is waiting on a full ring
  }
  generator.join();
  // Generator failures win: an aborted ring starves the consumer, whose
  // secondary error (truncated parse) would mask the root cause.
  if (generator_error) std::rethrow_exception(generator_error);
  if (consumer_error) std::rethrow_exception(consumer_error);
  return stats;
}

DetectionOutcome detect_sharded(const detect::Engine& engine,
                                std::span<const std::string> references,
                                detect::Strategy strategy,
                                const ShardOptions& shard,
                                const BatchProducer& produce) {
  if (shard.shards <= 1) {
    // Inline: detect on the producing thread, no queue.
    std::vector<Verdict> verdicts;
    const auto stream = produce([&](std::span<const detect::IdnEntry> batch) {
      const auto r = engine.detect(
          {.references = references, .idns = batch, .strategy = strategy});
      append_verdicts(verdicts, r.matches, batch);
    });
    auto out = canonicalize_verdicts(std::move(verdicts));
    out.stream = stream;
    return out;
  }

  BoundedQueue<std::vector<detect::IdnEntry>> queue{shard.queue_batches};
  std::vector<std::vector<Verdict>> per_shard(shard.shards);
  std::mutex error_mutex;
  std::exception_ptr worker_error;

  std::vector<std::thread> workers;
  workers.reserve(shard.shards);
  for (std::size_t k = 0; k < shard.shards; ++k) {
    workers.emplace_back([&, k] {
      std::vector<detect::IdnEntry> batch;
      try {
        while (queue.pop(batch)) {
          const auto r = engine.detect(
              {.references = references, .idns = batch, .strategy = strategy});
          append_verdicts(per_shard[k], r.matches, batch);
        }
      } catch (...) {
        {
          std::lock_guard lock{error_mutex};
          if (!worker_error) worker_error = std::current_exception();
        }
        queue.abort();  // unblocks the producer and the sibling shards
      }
    });
  }

  ZoneStreamStats stream;
  std::exception_ptr produce_error;
  try {
    stream = produce([&](std::span<const detect::IdnEntry> batch) {
      if (!queue.push(std::vector<detect::IdnEntry>{batch.begin(), batch.end()})) {
        throw std::runtime_error{"detect_sharded: shard worker failed"};
      }
    });
  } catch (...) {
    produce_error = std::current_exception();
    queue.abort();
  }
  queue.close();
  for (auto& t : workers) t.join();
  // A worker failure caused any push-side runtime_error; report the root.
  if (worker_error) std::rethrow_exception(worker_error);
  if (produce_error) std::rethrow_exception(produce_error);

  std::size_t total = 0;
  for (const auto& part : per_shard) total += part.size();
  std::vector<Verdict> verdicts;
  verdicts.reserve(total);
  for (auto& part : per_shard) {
    verdicts.insert(verdicts.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
  }
  auto out = canonicalize_verdicts(std::move(verdicts));
  out.stream = stream;
  return out;
}

DetectionOutcome canonicalize_matches(std::span<const detect::Match> matches,
                                      std::span<const detect::IdnEntry> idns) {
  std::vector<Verdict> verdicts;
  verdicts.reserve(matches.size());
  append_verdicts(verdicts, matches, idns);
  return canonicalize_verdicts(std::move(verdicts));
}

DetectionOutcome merge_outcomes(std::vector<DetectionOutcome> parts) {
  std::vector<Verdict> verdicts;
  ZoneStreamStats stream;
  for (auto& part : parts) {
    verdicts.insert(verdicts.end(), std::make_move_iterator(part.verdicts.begin()),
                    std::make_move_iterator(part.verdicts.end()));
    stream.records += part.stream.records;
    stream.domains += part.stream.domains;
    stream.idns += part.stream.idns;
    stream.batches += part.stream.batches;
  }
  auto out = canonicalize_verdicts(std::move(verdicts));
  out.stream = stream;
  return out;
}

DetectionOutcome detect_materialized(const detect::Engine& engine,
                                     std::span<const std::string> references,
                                     const std::string& zone_path,
                                     const StreamOptions& options,
                                     detect::Strategy strategy) {
  std::vector<detect::IdnEntry> idns;
  auto stream =
      stream_zone_idns(zone_path, options, [&](std::span<const detect::IdnEntry> batch) {
        idns.insert(idns.end(), batch.begin(), batch.end());
      });
  const auto r =
      engine.detect({.references = references, .idns = idns, .strategy = strategy});
  auto out = canonicalize_matches(r.matches, idns);
  out.stream = stream;
  return out;
}

// --- GenerationDiffPipeline -----------------------------------------------

GenerationDiffPipeline::GenerationDiffPipeline(const font::FontSource& initial_font,
                                               std::vector<std::string> references,
                                               Config config)
    : config_{std::move(config)},
      font_{&initial_font},
      simchar_{simchar::SimCharDb::build(initial_font, config_.build)},
      db_{simchar_, unicode::ConfusablesDb::embedded(), config_.db},
      references_{std::move(references)},
      ref_index_{db_, std::span<const std::string>{references_},
                 {.max_bucket_occupancy = config_.engine.skeleton_bucket_cap}},
      engine_{std::make_unique<detect::Engine>(db_, config_.engine)} {}

GenerationDiffPipeline::ApplyResult GenerationDiffPipeline::apply(
    const DiffBatch& batch) {
  ApplyResult result;
  if (batch.font != nullptr) font_ = batch.font;
  if (!batch.new_characters.empty()) {
    simchar_ = simchar::update_with_new_characters(simchar_, *font_,
                                                   batch.new_characters, config_.build);
    result.db_update = db_.update_with_new_characters(simchar_);
    if (!result.db_update.canonical_changed.empty()) {
      result.index_entries_rehashed =
          ref_index_.rehash_changed(std::span<const std::string>{references_},
                                    result.db_update.canonical_changed);
    }
  }
  if (!batch.new_registrations.empty()) {
    auto fresh = core::ShamFinder::extract_idns(batch.new_registrations, config_.tld);
    result.new_idns = fresh.size();
    idns_.insert(idns_.end(), std::make_move_iterator(fresh.begin()),
                 std::make_move_iterator(fresh.end()));
  }
  return result;
}

DetectionOutcome GenerationDiffPipeline::detect(detect::Strategy strategy) const {
  const auto r = engine_->detect(
      {.references = references_, .idns = idns_, .strategy = strategy});
  auto out = canonicalize_matches(r.matches, idns_);
  out.stream.idns = idns_.size();
  return out;
}

DiffEquivalence verify_against_rebuild(const GenerationDiffPipeline& p) {
  DiffEquivalence eq;
  const auto& cfg = p.config();

  // From-scratch baseline over the current font: its coverage is day 0
  // plus every addition applied so far, so a full build over it is what
  // the incremental path claims to equal.
  const auto rebuilt_sim = simchar::SimCharDb::build(p.current_font(), cfg.build);
  const homoglyph::HomoglyphDb rebuilt_db{rebuilt_sim,
                                          unicode::ConfusablesDb::embedded(), cfg.db};

  const auto a = p.db().to_flat();
  const auto b = rebuilt_db.to_flat();
  eq.pairs_identical = a.pair_keys == b.pair_keys && a.pair_sources == b.pair_sources;
  eq.canonical_identical = a.canon_keys == b.canon_keys &&
                           a.canon_reps == b.canon_reps &&
                           a.canonical_classes == b.canonical_classes;

  const detect::SkeletonIndex rebuilt_index{
      rebuilt_db, p.references(),
      {.max_bucket_occupancy = cfg.engine.skeleton_bucket_cap}};
  const auto fa = p.reference_index().to_flat();
  const auto fb = rebuilt_index.to_flat();
  eq.skeleton_identical =
      fa.hash_mask == fb.hash_mask && fa.entry_hashes == fb.entry_hashes &&
      fa.entry_h2 == fb.entry_h2 && fa.bucket_hashes == fb.bucket_hashes &&
      fa.bucket_offsets == fb.bucket_offsets &&
      fa.bucket_entries == fb.bucket_entries &&
      fa.bucket_child_start == fb.bucket_child_start && fa.child_h2 == fb.child_h2 &&
      fa.child_offsets == fb.child_offsets && fa.child_entries == fb.child_entries;

  const detect::Engine rebuilt_engine{rebuilt_db, cfg.engine};
  eq.verdicts_identical = true;
  for (const auto strategy : {detect::Strategy::kSerial, detect::Strategy::kSkeleton}) {
    const auto incremental = p.detect(strategy);
    const auto r = rebuilt_engine.detect(
        {.references = p.references(), .idns = p.idns(), .strategy = strategy});
    const auto rebuilt = canonicalize_matches(r.matches, p.idns());
    eq.verdicts_identical = eq.verdicts_identical &&
                            incremental.verdicts == rebuilt.verdicts &&
                            incremental.fingerprint == rebuilt.fingerprint;
  }
  return eq;
}

// --- Fleet ----------------------------------------------------------------

bool FleetReport::ok() const noexcept {
  return std::all_of(zones.begin(), zones.end(),
                     [](const FleetZoneResult& z) { return z.error.empty(); });
}

std::string FleetReport::to_json(int indent) const {
  util::JsonWriter w{indent};
  w.begin_object();
  w.field("artifact_bytes", static_cast<std::uint64_t>(artifact_bytes));
  w.field("references", static_cast<std::uint64_t>(references));
  w.field("shards", static_cast<std::uint64_t>(shards));
  w.field("rss_before_kib", static_cast<std::uint64_t>(rss_before_kib));
  w.field("rss_after_kib", static_cast<std::uint64_t>(rss_after_kib));
  w.field("seconds", seconds);
  w.field("total_domains", static_cast<std::uint64_t>(total_domains));
  w.field("total_idns", static_cast<std::uint64_t>(total_idns));
  w.field("total_matches", static_cast<std::uint64_t>(total_matches));
  w.field("ok", ok());
  w.key("zones").begin_array();
  for (const auto& z : zones) {
    w.begin_object();
    w.field("tld", z.tld);
    w.field("records", static_cast<std::uint64_t>(z.stream.records));
    w.field("domains", static_cast<std::uint64_t>(z.stream.domains));
    w.field("idns", static_cast<std::uint64_t>(z.stream.idns));
    w.field("batches", static_cast<std::uint64_t>(z.stream.batches));
    w.field("matches", static_cast<std::uint64_t>(z.matches));
    w.field("verdict_fingerprint", z.verdict_fingerprint);
    w.field("setup_seconds", z.setup_seconds);
    w.field("seconds", z.seconds);
    w.field("domains_per_second", z.domains_per_second);
    w.field("rss_peak_kib", static_cast<std::uint64_t>(z.rss_peak_kib));
    if (!z.error.empty()) w.field("error", z.error);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

FleetReport run_fleet(const FleetOptions& options) {
  FleetReport report;
  report.rss_before_kib = resident_kib();
  {
    // Validate the artifact once up front; workers map it again (the page
    // cache backs every mapping with one set of physical pages).
    const auto probe = db::DbArtifact::load(options.db_file);
    if (probe.references().empty()) {
      throw std::invalid_argument{
          "run_fleet: artifact carries no reference list (build-db --references)"};
    }
    report.artifact_bytes = probe.file_size();
    report.references = probe.references().size();
  }

  report.shards = std::max<std::size_t>(1, options.shards);
  report.zones.resize(options.zones.size());
  const std::size_t passes = std::max<std::size_t>(1, options.passes);
  util::Stopwatch fleet_watch;
  std::vector<std::thread> workers;
  workers.reserve(options.zones.size());
  for (std::size_t i = 0; i < options.zones.size(); ++i) {
    workers.emplace_back([&options, &report, passes, i] {
      auto& out = report.zones[i];
      const auto& zone = options.zones[i];
      out.tld = zone.tld;
      try {
        util::Stopwatch setup_watch;
        const auto engine = detect::Engine::from_db_file(options.db_file);
        const auto& refs = engine.artifact()->references();
        out.setup_seconds = setup_watch.seconds();

        StreamOptions stream{.tld = zone.tld, .batch_size = options.batch_size};
        // Progress doubles as the peak-RSS sampler; keep a sampling
        // cadence even when the caller asked for no progress output.
        stream.progress_interval = options.progress_interval != 0
                                       ? options.progress_interval
                                       : std::size_t{262'144};
        stream.on_progress = [&options, &out](const StreamProgress& p) {
          out.rss_peak_kib = std::max(out.rss_peak_kib, p.rss_kib);
          if (options.on_progress) options.on_progress(out.tld, p);
        };
        const ShardOptions shard{.shards = std::max<std::size_t>(1, options.shards),
                                 .queue_batches = options.queue_batches};

        // A zone without a path is generated on the fly from the engine's
        // own database.
        GenStream gen;
        gen.scenario = zone.scenario;
        gen.zone = {.which = zone.which, .tld = zone.tld, .chunk_bytes = zone.chunk_bytes};
        const BatchProducer produce =
            [&](const std::function<void(std::span<const detect::IdnEntry>)>& sink) {
              return zone.zone_path.empty()
                         ? stream_generated_idns(engine.db(), gen, stream, sink)
                         : stream_zone_idns(zone.zone_path, stream, sink);
            };

        // Timed from here: the worker's own work span, not fleet launch
        // or artifact-mapping skew.
        util::Stopwatch work_watch;
        for (std::size_t pass = 0; pass < passes; ++pass) {
          const auto outcome =
              detect_sharded(engine, refs, options.strategy, shard, produce);
          out.stream.records += outcome.stream.records;
          out.stream.domains += outcome.stream.domains;
          out.stream.idns += outcome.stream.idns;
          out.stream.batches += outcome.stream.batches;
          out.matches = outcome.verdicts.size();
          out.verdict_fingerprint = outcome.fingerprint;
        }
        out.seconds = work_watch.seconds();
      } catch (const std::exception& e) {
        out.error = e.what();
      }
      out.rss_peak_kib = std::max(out.rss_peak_kib, resident_kib());
      out.domains_per_second =
          out.seconds > 0.0 ? static_cast<double>(out.stream.domains) / out.seconds
                            : 0.0;
    });
  }
  for (auto& t : workers) t.join();
  report.seconds = fleet_watch.seconds();
  report.rss_after_kib = resident_kib();
  for (const auto& z : report.zones) {
    report.total_domains += z.stream.domains;
    report.total_idns += z.stream.idns;
    report.total_matches += z.matches;
  }
  return report;
}

}  // namespace sham::measure
