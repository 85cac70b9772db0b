// Shared plumbing of the benchmark program: run arguments, the result every
// workload returns, order statistics, process counters, content
// fingerprints, and the in-memory span recorder of the traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace shambench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs_root;  // cache of seeded inputs (see inputs.hpp)
  std::string work_dir;     // per-run work files: built artifacts, span dumps
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` go into the final JSON line;
/// `notes` are human-readable lines printed before it.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> errors;  // oracle failures, one line each

  void metric(std::string name, double value, std::string unit);
  void note(const char* format, ...) __attribute__((format(printf, 2, 3)));
  /// Record an oracle failure: the run is reported incorrect.
  void fail(const char* format, ...) __attribute__((format(printf, 2, 3)));
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double max_of(const std::vector<double>& values);

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = kFnvOffset);
/// FNV-1a over a whole file. Throws std::runtime_error when unreadable.
[[nodiscard]] std::uint64_t file_fingerprint(const std::string& path);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Spans the traced runs record around each call into the program. Spans
/// stay in memory until write() dumps them when the run ends.
class Tracer {
 public:
  struct Span {
    std::string_view name;  // string literal
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t item = 0;    // batch or request id, 0 = none
    double start = 0.0;        // seconds since the tracer was created
    double end = 0.0;
  };

  Tracer() : origin_{Clock::now()} {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint64_t next_id() noexcept { return ++ids_; }
  [[nodiscard]] double offset(Clock::time_point t) const noexcept {
    return seconds_between(origin_, t);
  }
  void record(const Span& span);

  /// Summed self time of the spans named `name`: each span's duration
  /// minus the part of it its direct children cover.
  [[nodiscard]] double self_seconds(std::string_view name) const;
  /// One JSON object per span, one per line.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction. A null tracer makes
/// it a no-op, so traced and untraced code share one path where they can.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::uint64_t parent = 0,
             std::uint64_t item = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  Tracer::Span span_;
};

/// Bounded blocking FIFO between one producer and several consumers.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_{capacity} {}

  void push(T item) {
    std::unique_lock lock{mutex_};
    not_full_.wait(lock, [&] { return items_.size() < capacity_; });
    items_.push_back(std::move(item));
    not_empty_.notify_one();
  }
  /// False once the queue is closed and drained.
  bool pop(T& out) {
    std::unique_lock lock{mutex_};
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
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

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace shambench
