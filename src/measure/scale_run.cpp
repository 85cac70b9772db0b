#include "measure/scale_run.hpp"

#include <string.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
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
#include "util/input_file.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace sham::measure {

namespace {

/// Slices per thread when run_fleet runs a zone on several threads: enough
/// that a thread finishing early finds work while another finishes a slow
/// slice, few enough that per-slice set-up stays small.
constexpr std::size_t kSlicesPerWorker = 8;

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

/// Run task(0) .. task(count - 1) on `workers` threads, the calling thread
/// among them: each takes the lowest-numbered task that has not started.
/// A thread that has seen a task throw takes no further task; another
/// thread may still take one while the failure is being raised. Every
/// taken task runs to its end, and the earliest failed task's error is
/// rethrown. The flag is checked before the take, never after, so a task is
/// taken only to run; tasks are taken in order, so every task before a
/// failed one has run: the error is the one a sequential run meets first.
template <typename Task>
void run_in_order(std::size_t count, std::size_t workers, const Task& task) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(count);
  const auto work = [&] {
    while (!failed) {
      const std::size_t k = next++;
      if (k >= count) return;
      try {
        task(k);
      } catch (...) {
        errors[k] = std::current_exception();
        failed = true;
      }
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    for (std::size_t w = 1; w < std::min(workers, count); ++w) threads.emplace_back(work);
    work();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// What the slices of one zone share: a copy of the stream options, and
/// the progress reports. Each slice reports its running totals every
/// progress_interval / slices of its own owner names; the callback runs,
/// serialized, whenever the zone-wide sum passes the next multiple of
/// progress_interval, so one slice reports exactly as often as before
/// slicing.
class SliceShared {
 public:
  SliceShared(const StreamOptions& options, std::size_t slices)
      : options_{options},
        report_every_{options.progress_interval == 0 || !options.on_progress
                          ? 0
                          : std::max<std::size_t>(1, options.progress_interval / slices)},
        next_callback_{options.progress_interval},
        progress_(slices) {}

  [[nodiscard]] const StreamOptions& options() const noexcept { return options_; }
  /// Owner names of one slice between its reports (0 = never report).
  [[nodiscard]] std::size_t report_every() const noexcept { return report_every_; }

  /// The callback runs under the lock: calls must never overlap, and
  /// must see the totals in increasing order.
  void report(std::size_t slice, const ZoneStreamStats& so_far) {
    std::lock_guard lock{mutex_};
    progress_[slice] = so_far;
    StreamProgress total;
    for (const auto& p : progress_) {
      total.domains += p.domains;
      total.idns += p.idns;
      total.records += p.records;
    }
    if (total.domains < next_callback_) return;
    const std::size_t interval = options_.progress_interval;
    next_callback_ = (total.domains / interval + 1) * interval;
    total.rss_kib = resident_kib();
    options_.on_progress(total);
  }

 private:
  StreamOptions options_;
  std::size_t report_every_;
  std::mutex mutex_;
  std::size_t next_callback_;  // zone-wide domains that trigger the next callback
  std::vector<ZoneStreamStats> progress_;  // each slice's latest report
};

/// Owner-name -> IdnEntry batching of one slice: consecutive-owner dedup
/// (primed with the owner of the record before the slice), bounded
/// pending/batch buffers, and the periodic progress report.
class IdnBatcher {
 public:
  IdnBatcher(SliceShared& shared, std::size_t slice, std::string_view tld,
             const BatchSink& on_batch, std::string_view last_owner)
      : shared_{&shared},
        slice_{slice},
        tld_{tld},
        suffix_{"." + tld_},
        on_batch_{&on_batch},
        cap_{std::max<std::size_t>(1, shared.options().batch_size)},
        last_owner_{last_owner} {}

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
    const std::size_t every = shared_->report_every();
    if (every != 0 && stats_.domains % every == 0) {
      // idns covers every owner seen so far, including the
      // extracted-but-undelivered tail.
      extract_pending();
      auto so_far = stats_;
      so_far.idns += batch_.size();
      shared_->report(slice_, so_far);
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

  SliceShared* shared_;
  std::size_t slice_;
  std::string tld_;
  std::string suffix_;  // "." + tld_
  const BatchSink* on_batch_;
  std::size_t cap_;
  ZoneStreamStats stats_;
  std::vector<std::string> pending_;  // IDN candidates awaiting extraction
  std::vector<detect::IdnEntry> batch_;
  std::string last_owner_;
};

/// Parse one slice from `start` (its first line's sequential state),
/// batching its IDNs.
ZoneStreamStats stream_slice(SliceShared& shared, std::size_t slice,
                             std::string_view tld, const dns::ZoneReaderState& start,
                             const BatchSink& on_batch,
                             const std::function<void(dns::ZoneStreamReader&)>& feed) {
  IdnBatcher batcher{shared, slice, tld, on_batch, start.owner};
  dns::ZoneStreamReader reader{[&](const dns::ResourceRecord& r) { batcher.record(r); },
                               start};
  feed(reader);
  reader.finish();
  return batcher.finish();
}

void ignore_record(const dns::ResourceRecord&) {}

// --- File slices ------------------------------------------------------------

constexpr std::size_t kWindow = 64 * 1024;
constexpr std::size_t kToEnd = std::numeric_limits<std::size_t>::max();

/// Read exactly `n` bytes at `offset`; a file that ends early is an error.
void read_exact(const util::InputFile& file, char* out, std::size_t n,
                std::size_t offset) {
  while (n > 0) {
    const std::size_t got = file.read_at(out, n, offset);
    if (got == 0) {
      throw std::runtime_error{"zone file " + file.path() + " shrank while read"};
    }
    out += got;
    offset += got;
    n -= got;
  }
}

/// The first line start at or after `target`: 0, or just past a '\n'
/// (the file size when no '\n' follows).
std::size_t line_start_at_or_after(const util::InputFile& file, std::size_t target) {
  if (target == 0) return 0;
  std::vector<char> window(kWindow);
  for (std::size_t pos = target - 1;;) {
    const std::size_t got = file.read_at(window.data(), window.size(), pos);
    if (got == 0) return pos;
    if (const auto* nl = static_cast<const char*>(std::memchr(window.data(), '\n', got))) {
      return pos + static_cast<std::size_t>(nl - window.data()) + 1;
    }
    pos += got;
  }
}

/// Newlines in [0, end): the line number a slice starting at `end` adds to
/// its own (counted only when the slice raises an error).
std::size_t lines_before(const util::InputFile& file, std::size_t end) {
  std::vector<char> window(kWindow);
  std::size_t lines = 0;
  for (std::size_t pos = 0; pos < end;) {
    const std::size_t n = std::min(window.size(), end - pos);
    read_exact(file, window.data(), n, pos);
    lines += static_cast<std::size_t>(std::count(window.data(), window.data() + n, '\n'));
    pos += n;
  }
  return lines;
}

/// One line of a zone file, with its '\n', and its file offset.
struct FileLine {
  std::size_t offset = 0;
  std::string line;
};

/// The directive lines of the line-aligned range [begin, end), which lies
/// within the file. A directive line's first token starts with '$', so
/// only lines holding a '$' are classified, exactly as the parser would.
std::vector<FileLine> scan_directives(const util::InputFile& file, std::size_t begin,
                                       std::size_t end) {
  std::vector<FileLine> out;
  std::vector<char> buffer(kWindow);
  for (std::size_t pos = begin; pos < end;) {
    const std::size_t got = std::min(buffer.size(), end - pos);
    read_exact(file, buffer.data(), got, pos);
    const char* data = buffer.data();
    // Scan whole lines only; a partial last line is read again next time.
    std::size_t usable = got;
    if (pos + got < end) {
      const auto* nl = static_cast<const char*>(memrchr(data, '\n', got));
      if (nl == nullptr) {  // one line longer than the buffer
        buffer.resize(buffer.size() * 2);
        continue;
      }
      usable = static_cast<std::size_t>(nl - data) + 1;
    }
    for (std::size_t i = 0; i < usable;) {  // i is always a line start
      const auto* dollar = static_cast<const char*>(std::memchr(data + i, '$', usable - i));
      if (dollar == nullptr) break;
      const auto at = static_cast<std::size_t>(dollar - data);
      const auto* nl_before = static_cast<const char*>(memrchr(data + i, '\n', at - i));
      const std::size_t line_begin =
          nl_before == nullptr ? i : static_cast<std::size_t>(nl_before - data) + 1;
      const auto* nl_after = static_cast<const char*>(std::memchr(dollar, '\n', usable - at));
      const std::size_t line_end =
          nl_after == nullptr ? usable : static_cast<std::size_t>(nl_after - data);
      const std::string_view line{data + line_begin, line_end - line_begin};
      if (dns::ZoneStreamReader::classify(line) == dns::ZoneLineKind::kDirective) {
        out.push_back({pos + line_begin, std::string{line} + '\n'});
      }
      i = line_end + 1;
    }
    pos += usable;
  }
  return out;
}

/// The last line before the line start `cut` that names a record owner,
/// with its offset; nullopt when there is none.
std::optional<FileLine> last_owner_line(const util::InputFile& file, std::size_t cut) {
  if (cut == 0) return std::nullopt;
  std::string text;          // bytes [low, cut - 1): the unscanned head
  std::size_t low = cut - 1;  // drops the '\n' ending the last line
  std::vector<char> window(kWindow);
  while (true) {
    const auto nl = text.rfind('\n');
    if (nl == std::string::npos && low > 0) {
      const std::size_t n = std::min(window.size(), low);
      low -= n;
      read_exact(file, window.data(), n, low);
      text.insert(0, window.data(), n);
      continue;
    }
    const std::size_t line_begin = nl == std::string::npos ? 0 : nl + 1;
    const std::string_view line = std::string_view{text}.substr(line_begin);
    if (dns::ZoneStreamReader::classify(line) == dns::ZoneLineKind::kOwner) {
      return FileLine{low + line_begin, std::string{line} + '\n'};
    }
    if (nl == std::string::npos) return std::nullopt;
    text.resize(nl);
  }
}

/// A zone file cut at line starts, with the directive state at each cut.
class FileSlices {
 public:
  FileSlices(const std::string& path, std::size_t slices, const StreamOptions& options,
             std::size_t workers)
      : file_{path},
        shared_{options, slices},
        directives_(slices),
        start_(slices),
        start_error_(slices) {
    cuts_.push_back(0);
    for (std::size_t k = 1; k < slices; ++k) {
      const auto target = static_cast<std::size_t>(
          static_cast<unsigned __int128>(file_.size()) * k / slices);
      cuts_.push_back(std::max(cuts_.back(), line_start_at_or_after(file_, target)));
    }
    cuts_.push_back(kToEnd);
    if (slices > 1) prescan(workers);
  }

  [[nodiscard]] std::size_t size() const noexcept { return start_.size(); }

  ZoneStreamStats run(std::size_t k, const BatchSink& on_batch) {
    const std::size_t begin = cuts_[k];
    const std::size_t end = cuts_[k + 1];
    if (begin == end) return {};
    dns::ZoneReaderState start;
    if (k > 0) {
      // A failure here means a line before the cut is malformed, so an
      // earlier slice fails on it and its error is the one reported.
      if (start_error_[k]) std::rethrow_exception(start_error_[k]);
      start = start_[k];
      if (const auto owner_line = last_owner_line(file_, begin)) {
        dns::ZoneStreamReader reader{ignore_record, state_at(owner_line->offset)};
        reader.feed(owner_line->line);
        start.owner = reader.state().owner;
      }
    }
    try {
      return stream_slice(shared_, k, shared_.options().tld, start, on_batch,
                          [&](dns::ZoneStreamReader& reader) {
                            dns::feed_file(reader, file_, begin, end);
                          });
    } catch (const dns::ZoneParseError& e) {
      throw dns::ZoneParseError{e.line() + lines_before(file_, begin), e.message()};
    }
  }

 private:
  /// Collect every slice's directive lines on `workers` threads (the last
  /// slice's are never needed), then replay them in order for each cut's
  /// state.
  void prescan(std::size_t workers) {
    run_in_order(size() - 1, workers, [&](std::size_t k) {
      directives_[k] = scan_directives(file_, cuts_[k], cuts_[k + 1]);
    });

    dns::ZoneStreamReader replay{ignore_record};
    for (std::size_t k = 1; k < size(); ++k) {
      try {
        for (const auto& d : directives_[k - 1]) replay.feed(d.line);
        start_[k] = replay.state();
      } catch (...) {
        for (std::size_t j = k; j < size(); ++j) start_error_[j] = std::current_exception();
        return;
      }
    }
  }

  /// The directive state just before file offset `offset` (in a scanned
  /// slice).
  [[nodiscard]] dns::ZoneReaderState state_at(std::size_t offset) const {
    const auto k = static_cast<std::size_t>(
        std::upper_bound(cuts_.begin(), cuts_.end(), offset) - cuts_.begin() - 1);
    if (start_error_[k]) std::rethrow_exception(start_error_[k]);
    dns::ZoneStreamReader reader{ignore_record, start_[k]};
    for (const auto& d : directives_[k]) {
      if (d.offset >= offset) break;
      reader.feed(d.line);
    }
    return reader.state();
  }

  util::InputFile file_;
  SliceShared shared_;
  std::vector<std::size_t> cuts_;  // size() + 1 offsets; slice k is [cuts_[k], cuts_[k + 1])
  std::vector<std::vector<FileLine>> directives_;
  std::vector<dns::ZoneReaderState> start_;        // directive state at each cut
  std::vector<std::exception_ptr> start_error_;  // a malformed directive before the cut
};

// --- Generated slices -------------------------------------------------------

/// The reader state at population index `first` of a generated zone: the
/// header's directives, then the records of the last index before `first`
/// that emits any.
dns::ZoneReaderState generated_state_at(
    const std::shared_ptr<const internet::ScenarioCore>& core,
    const internet::ZoneGenOptions& zone, std::size_t first) {
  dns::ZoneStreamReader reader{ignore_record};
  std::string chunk;
  internet::ZoneTextStream header{core, zone, 0, 0};
  while (header.next_chunk(chunk)) reader.feed(chunk);
  for (std::size_t index = first; index-- > 0;) {
    internet::ZoneTextStream one{core, zone, index, index + 1};
    bool emitted = false;
    while (one.next_chunk(chunk)) {
      emitted = emitted || !chunk.empty();
      reader.feed(chunk);
    }
    if (emitted) break;
  }
  return reader.state();
}

}  // namespace

std::size_t resident_kib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

std::vector<BatchProducer> zone_file_slices(const std::string& path, std::size_t slices,
                                            const StreamOptions& options,
                                            std::size_t workers) {
  const auto plan = std::make_shared<FileSlices>(path, std::max<std::size_t>(1, slices),
                                                 options, workers);
  std::vector<BatchProducer> out;
  for (std::size_t k = 0; k < plan->size(); ++k) {
    out.emplace_back([plan, k](const BatchSink& sink) { return plan->run(k, sink); });
  }
  return out;
}

std::vector<BatchProducer> generated_slices(
    std::shared_ptr<const internet::ScenarioCore> core,
    const internet::ZoneGenOptions& zone, std::size_t slices,
    const StreamOptions& options) {
  slices = std::max<std::size_t>(1, slices);
  const auto shared = std::make_shared<SliceShared>(options, slices);
  const std::size_t population = core->population();
  std::vector<BatchProducer> out;
  for (std::size_t k = 0; k < slices; ++k) {
    const std::size_t first = population * k / slices;
    const std::size_t last = population * (k + 1) / slices;
    out.emplace_back([core, zone, shared, k, first, last](const BatchSink& sink) {
      const auto start =
          k == 0 ? dns::ZoneReaderState{} : generated_state_at(core, zone, first);
      internet::ZoneTextStream stream{core, zone, first, last};
      return stream_slice(*shared, k, zone.tld, start, sink,
                          [&](dns::ZoneStreamReader& reader) {
                            std::string chunk;
                            while (stream.next_chunk(chunk)) reader.feed(chunk);
                          });
    });
  }
  return out;
}

ZoneStreamStats stream_zone_idns(const std::string& path, const StreamOptions& options,
                                 const BatchSink& on_batch) {
  return zone_file_slices(path, 1, options, 1).front()(on_batch);
}

DetectionOutcome detect_sharded(const detect::Engine& engine,
                                std::span<const std::string> references,
                                detect::Strategy strategy,
                                std::span<const BatchProducer> slices,
                                std::size_t workers) {
  std::vector<std::vector<Verdict>> per_slice(slices.size());
  std::vector<ZoneStreamStats> stats(slices.size());
  run_in_order(slices.size(), workers, [&](std::size_t k) {
    stats[k] = slices[k]([&](std::span<const detect::IdnEntry> batch) {
      const auto r =
          engine.detect({.references = references, .idns = batch, .strategy = strategy});
      append_verdicts(per_slice[k], r.matches, batch);
    });
  });

  std::vector<Verdict> verdicts;
  ZoneStreamStats stream;
  for (std::size_t k = 0; k < slices.size(); ++k) {
    verdicts.insert(verdicts.end(), std::make_move_iterator(per_slice[k].begin()),
                    std::make_move_iterator(per_slice[k].end()));
    stream.records += stats[k].records;
    stream.domains += stats[k].domains;
    stream.idns += stats[k].idns;
    stream.batches += stats[k].batches;
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
      ref_index_{db_, std::span<const std::string>{references_}},
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

  const detect::SkeletonIndex rebuilt_index{rebuilt_db, p.references()};
  eq.skeleton_identical = p.reference_index().to_flat() == rebuilt_index.to_flat();

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
  if (options.shards == 0 || options.shards > kMaxShards) {
    throw std::invalid_argument{"run_fleet: shards must be 1-" + std::to_string(kMaxShards) +
                                ", got " + std::to_string(options.shards)};
  }
  FleetReport report;
  report.rss_before_kib = resident_kib();
  // One load (mapping plus checksum pass) serves every worker: each
  // engine adopts views over the same immutable mapping.
  const auto artifact =
      std::make_shared<const db::DbArtifact>(db::DbArtifact::load(options.db_file));
  if (artifact->references().empty()) {
    throw std::invalid_argument{
        "run_fleet: artifact carries no reference list (build-db --references)"};
  }
  report.artifact_bytes = artifact->file_size();
  report.references = artifact->references().size();

  report.shards = options.shards;
  report.zones.resize(options.zones.size());
  const std::size_t passes = std::max<std::size_t>(1, options.passes);
  util::Stopwatch fleet_watch;
  std::vector<std::thread> workers;
  workers.reserve(options.zones.size());
  for (std::size_t i = 0; i < options.zones.size(); ++i) {
    workers.emplace_back([&options, &report, &artifact, passes, i] {
      auto& out = report.zones[i];
      const auto& zone = options.zones[i];
      out.tld = zone.tld;
      try {
        util::Stopwatch setup_watch;
        const auto engine = detect::Engine::from_db_artifact(artifact);
        const auto& refs = artifact->references();
        out.setup_seconds = setup_watch.seconds();

        StreamOptions stream{.tld = zone.tld, .batch_size = options.batch_size};
        // Progress doubles as the peak-RSS sampler; keep a sampling
        // cadence even when the caller asked for no progress output.
        // Callbacks are serialized across the zone's slices.
        stream.progress_interval = options.progress_interval != 0
                                       ? options.progress_interval
                                       : std::size_t{262'144};
        stream.on_progress = [&options, &out](const StreamProgress& p) {
          out.rss_peak_kib = std::max(out.rss_peak_kib, p.rss_kib);
          if (options.on_progress) options.on_progress(out.tld, p);
        };
        // One thread keeps the zone whole, with no pre-scan.
        const std::size_t threads = options.shards;
        const std::size_t slices = threads == 1 ? 1 : kSlicesPerWorker * threads;
        const internet::ZoneGenOptions gen{
            .which = zone.which, .tld = zone.tld, .chunk_bytes = zone.chunk_bytes};

        // Timed from here: the worker's own work span, not fleet launch
        // or engine-construction skew.
        util::Stopwatch work_watch;
        // A zone without a path is generated on the fly from the engine's
        // own database; its core is built once and shared by every slice
        // and pass.
        std::shared_ptr<const internet::ScenarioCore> core;
        if (zone.zone_path.empty()) {
          core = std::make_shared<const internet::ScenarioCore>(
              internet::build_scenario_core(engine.db(), zone.scenario));
        }
        for (std::size_t pass = 0; pass < passes; ++pass) {
          const auto producers =
              core ? generated_slices(core, gen, slices, stream)
                   : zone_file_slices(zone.zone_path, slices, stream, threads);
          const auto outcome =
              detect_sharded(engine, refs, options.strategy, producers, threads);
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
