// Versioned request/response API of the resident detection service.
//
// A ServeRequest is one list-vs-list detection job: it owns its reference
// labels (small, per-client) and shares the IDN zone snapshot through a
// shared_ptr (large, long-lived, common to many requests in flight). The
// server answers with a ServeResponse carrying the match list, the full
// DetectionStats of the engine run that produced it, and scheduling
// metadata (queue wait, slot, coalesced-batch size).
//
// kApiVersion is the wire-compatibility number of this pair of structs:
// bump it when a field is renamed, removed, or changes meaning. Responses
// echo the version so clients built against a different revision can
// detect the skew instead of misreading fields.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "detect/detector.hpp"
#include "unicode/codepoint.hpp"

namespace sham::serve {

inline constexpr std::uint32_t kApiVersion = 2;

/// Immutable zone snapshot shared by every request detecting against the
/// same registered-IDN set. The server fingerprints the *contents* (see
/// detect::label_set_fingerprint), so distinct buffers with equal labels
/// coalesce all the same — sharing the pointer just avoids copies.
using ZoneSnapshot = std::shared_ptr<const std::vector<detect::IdnEntry>>;

enum class Priority : std::uint8_t {
  kNormal = 0,
  kHigh = 1,  // jumps the FIFO order at slot-pickup time, never sheds later
};

/// Terminal state of a request, reported in ServeResponse::status.
enum class ServeStatus : std::uint8_t {
  kOk,        // detection ran; matches/stats are valid
  kShed,      // rejected at admission (queue full, OverloadPolicy::kRejectWhenFull)
  kExpired,   // deadline passed while queued; the engine never ran it
  kInvalid,   // the request failed detect::validate_request inside the server
  kShutdown,  // server stopped before a slot picked the request up
  kInternalError,  // the engine threw something else (e.g. bad_alloc); the
                   // slot survives and keeps serving
};

[[nodiscard]] std::string_view status_name(ServeStatus status) noexcept;

struct ServeRequest {
  std::uint32_t api_version = kApiVersion;
  /// Exactly one of the two reference spans may be non-empty, with the
  /// same rules as detect::DetectRequest (validated at admission).
  std::vector<std::string> references;
  std::vector<unicode::U32String> unicode_references;
  ZoneSnapshot idns;  // null behaves as an empty zone
  Priority priority = Priority::kNormal;
  /// Max time the request may sit in the admission queue before it is
  /// answered kExpired instead of detected. Unset = the server default;
  /// zero = no deadline.
  std::optional<std::chrono::milliseconds> timeout;
};

struct ServeResponse {
  std::uint32_t api_version = kApiVersion;
  std::uint64_t request_id = 0;  // server-assigned, unique per server
  ServeStatus status = ServeStatus::kOk;
  std::string error;  // kInvalid / kInternalError: the exception's what()

  std::vector<detect::Match> matches;   // kOk only; DetectRequest ordering
  detect::DetectionStats stats;         // the engine run that served this

  // Scheduling metadata (kOk only unless noted).
  std::size_t slot_id = 0;       // slot that processed the request
  std::size_t batch_size = 1;    // size of the coalesced batch it rode in
  std::uint64_t dispatch_order = 0;  // global pickup sequence (1-based)
  double queue_seconds = 0.0;    // admission -> slot pickup (all statuses)
};

}  // namespace sham::serve
