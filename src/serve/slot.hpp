// Request slots: the fixed pool of execution lanes the DetectionServer
// schedules admitted requests onto (one OS thread per slot).
//
// Lifecycle of a slot, observable through SlotStats::state:
//
//   kIdle -------- no work assigned; the slot thread is parked on the
//        |         admission queue's condition variable.
//   kQueued ------ the slot has claimed a batch from the admission queue
//        |         but has not started the engine yet (the window is
//        |         short: deadline checks and batch bookkeeping).
//   kProcessing -- the engine is running this slot's batch.
//        |
//   kDone -------- the batch's promises are fulfilled; transient state
//                  before the slot re-parks as kIdle (or exits on stop).
//
// Slots never share partial work: a batch is claimed atomically under the
// queue lock by exactly one slot, processed to completion, and every
// request in it is answered before the slot returns to kIdle. Stopping
// the server lets in-flight batches finish (kProcessing is never
// cancelled) and resolves still-queued requests as kShutdown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sham::serve {

enum class SlotState : std::uint8_t {
  kIdle = 0,
  kQueued,
  kProcessing,
  kDone,
};

[[nodiscard]] std::string_view slot_state_name(SlotState state) noexcept;

/// Per-slot counters, aggregated by the slot thread itself (no sharing)
/// and snapshotted under the server's stats lock.
struct SlotStats {
  /// Serialization schema of to_json(); bump on rename/removal/meaning
  /// change (additions are backward-compatible).
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::size_t slot_id = 0;
  SlotState state = SlotState::kIdle;
  std::uint64_t served = 0;     // requests answered kOk
  std::uint64_t expired = 0;    // requests answered kExpired at pickup
  std::uint64_t invalid = 0;    // requests answered kInvalid (defensive path)
  std::uint64_t internal_error = 0;  // requests answered kInternalError
  std::uint64_t batches = 0;    // coalesced batches processed
  double busy_seconds = 0.0;    // wall clock spent in kQueued+kProcessing
  double detect_seconds = 0.0;  // wall clock inside Engine::detect
  double queue_wait_seconds = 0.0;  // summed queue wait of requests served

  /// One JSON object over every field above plus "schema_version" and the
  /// state as its name. `indent` as in util::JsonWriter (0 = compact).
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

}  // namespace sham::serve
