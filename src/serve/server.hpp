// DetectionServer: a long-lived service that owns one shared
// detect::Engine and schedules concurrent ServeRequests through a fixed
// pool of request slots (serve/slot.hpp) fed by a bounded admission queue.
//
// Scheduling model:
//   - submit() validates the request (detect::validate_request — the same
//     std::invalid_argument surface as calling the engine directly),
//     assigns an id, and enqueues it. When the queue is at capacity the
//     OverloadPolicy decides: kRejectWhenFull answers kShed immediately
//     (load shedding), kBlock parks the submitter until space frees.
//   - Each slot thread claims work from the queue: the oldest kHigh
//     request if any, else the oldest overall, plus — same-snapshot
//     batching — every queued request whose coalescing key matches, up to
//     ServerOptions::max_batch. The key is the zone snapshot's content
//     fingerprint (detect::label_set_fingerprint) + the HomoglyphDb
//     generation at admission: requests detecting against the same IDN
//     set share one index build instead of thrashing the engine's
//     last-snapshot index cache across interleaved snapshots.
//   - Deadlines (ServeRequest::timeout, default
//     ServerOptions::default_timeout) are enforced at slot pickup:
//     a request whose deadline passed while queued is answered kExpired
//     without running the engine.
//   - Any other exception out of the engine call (bad_alloc, a failed
//     thread spawn, ...) answers that one request kInternalError with the
//     exception's what(); the slot keeps serving.
//   - stop() (also run by the destructor) stops admission, answers every
//     still-queued request kShutdown, lets in-flight batches finish, and
//     joins the slot threads — no request's future is ever abandoned.
//
// Results for admitted requests are byte-identical to calling
// Engine::detect directly with the equivalent DetectRequest: the server
// adds scheduling, never changes detection semantics.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "detect/engine.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "serve/api.hpp"
#include "serve/slot.hpp"

namespace sham::serve {

/// Deferred delivery of one ServeResponse (what submit() returns).
///
/// Deliberately not std::future: libstdc++'s future synchronizes the
/// producer and consumer through __gthread_once, which ThreadSanitizer
/// cannot see (GCC PR 66146) and reports as a false-positive data race
/// all over the serve test suite. A plain mutex + condition_variable
/// channel gives TSan-visible happens-before edges and exactly the three
/// operations the API needs: get(), ready(), wait_for().
class ResponseFuture {
 public:
  /// Shared single-producer/single-consumer state. The server keeps one
  /// reference until it fulfills the response; the caller keeps the other.
  struct Channel {
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<ServeResponse> value;

    void set(ServeResponse&& response) {
      {
        std::lock_guard lock{mutex};
        value = std::move(response);
      }
      cv.notify_all();
    }
  };

  explicit ResponseFuture(std::shared_ptr<Channel> channel)
      : channel_{std::move(channel)} {}

  /// Block until the response is delivered and move it out (call once).
  [[nodiscard]] ServeResponse get() {
    std::unique_lock lock{channel_->mutex};
    channel_->cv.wait(lock, [&] { return channel_->value.has_value(); });
    return std::move(*channel_->value);
  }

  /// True once the response has been delivered (get() will not block).
  [[nodiscard]] bool ready() const {
    std::lock_guard lock{channel_->mutex};
    return channel_->value.has_value();
  }

  /// Wait up to `duration`; true iff the response arrived in time.
  template <class Rep, class Period>
  [[nodiscard]] bool wait_for(std::chrono::duration<Rep, Period> duration) {
    std::unique_lock lock{channel_->mutex};
    return channel_->cv.wait_for(lock, duration,
                                 [&] { return channel_->value.has_value(); });
  }

 private:
  std::shared_ptr<Channel> channel_;
};

enum class OverloadPolicy : std::uint8_t {
  kRejectWhenFull,  // shed: answer kShed when the queue is at capacity
  kBlock,           // backpressure: block submit() until space frees
};

[[nodiscard]] std::string_view overload_policy_name(OverloadPolicy policy) noexcept;

struct ServerOptions {
  /// Request slots = concurrent engine runs (one thread per slot).
  std::size_t slots = 2;
  /// Bounded admission queue capacity (requests waiting for a slot).
  std::size_t queue_capacity = 64;
  OverloadPolicy overload = OverloadPolicy::kRejectWhenFull;
  /// Same-snapshot batching cap: at most this many queued requests with
  /// one coalescing key are claimed per slot pickup. 1 disables batching.
  std::size_t max_batch = 16;
  /// Queue deadline applied when ServeRequest::timeout is unset;
  /// zero = queued requests never expire.
  std::chrono::milliseconds default_timeout{0};
  /// Start with the slots paused (admission still open): deterministic
  /// tests fill the queue, then resume(). Production servers start live.
  bool start_paused = false;
};

/// Server-wide counters plus a snapshot of every slot's SlotStats.
struct ServerStats {
  /// Serialization schema of to_json(); bump on rename/removal/meaning
  /// change (additions are backward-compatible).
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::uint64_t submitted = 0;  // submit() calls that passed validation
  std::uint64_t admitted = 0;   // entered the queue
  std::uint64_t shed = 0;       // answered kShed at admission
  std::uint64_t served = 0;     // answered kOk
  std::uint64_t expired = 0;    // answered kExpired
  std::uint64_t invalid = 0;    // answered kInvalid
  std::uint64_t shutdown = 0;   // answered kShutdown by stop()
  std::uint64_t internal_error = 0;  // answered kInternalError
  std::uint64_t batches = 0;    // coalesced batches processed
  /// Requests that shared their batch with at least one other request.
  std::uint64_t coalesced_requests = 0;
  std::size_t queue_depth = 0;       // requests queued right now
  std::size_t peak_queue_depth = 0;  // high-water mark since construction
  double detect_seconds = 0.0;      // wall clock inside Engine::detect (sum)
  double queue_wait_seconds = 0.0;  // summed queue wait of picked requests
  bool running = false;
  bool paused = false;
  std::vector<SlotStats> slots;

  /// Requests served per engine batch; > 1.0 means same-snapshot batching
  /// is amortizing index work across requests.
  [[nodiscard]] double coalescing_ratio() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(served) / static_cast<double>(batches);
  }

  /// One JSON object over every field above (slots as an array of
  /// SlotStats::to_json objects). `indent` as in util::JsonWriter.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

class DetectionServer {
 public:
  /// The database must outlive the server. The engine is constructed
  /// here and owned for the server's lifetime; engine_options as in
  /// detect::Engine (caching on by default — batching relies on it).
  explicit DetectionServer(const homoglyph::HomoglyphDb& db,
                           detect::EngineOptions engine_options = {},
                           ServerOptions options = {});
  ~DetectionServer();  // stop()

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  /// Admit a request. Throws std::invalid_argument on malformed input
  /// (exactly detect::validate_request's rules) — the future is only
  /// created for well-formed requests and is always eventually fulfilled
  /// (kOk, kShed, kExpired, kInvalid, kShutdown, or kInternalError).
  [[nodiscard]] ResponseFuture submit(ServeRequest request);

  /// submit() + wait. Convenience for callers without their own pipeline.
  [[nodiscard]] ServeResponse detect_sync(ServeRequest request);

  /// Halt/resume slot pickup. Admission stays open while paused (the
  /// queue fills, sheds, or blocks per OverloadPolicy).
  void pause();
  void resume();

  /// Stop admission, answer queued requests kShutdown, finish in-flight
  /// batches, join slot threads. Idempotent; run by the destructor.
  void stop();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const detect::Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

 private:
  struct Pending;

  void slot_loop(std::size_t slot_id);
  /// Claim the next batch under mutex_: priority head + same-key
  /// followers up to max_batch. Empty only when the queue is.
  [[nodiscard]] std::vector<std::unique_ptr<Pending>> claim_batch_locked();

  const homoglyph::HomoglyphDb* db_;
  detect::Engine engine_;
  ServerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // slots: work available / stop / resume
  std::condition_variable space_cv_;  // kBlock submitters: queue has space
  std::deque<std::unique_ptr<Pending>> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatch_counter_ = 0;
  ServerStats totals_;  // scalar counters only; slots tracked separately
  std::vector<SlotStats> slot_stats_;
  std::vector<std::thread> slots_;
};

}  // namespace sham::serve
