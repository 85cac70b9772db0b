#include "serve/slot.hpp"

#include "util/json.hpp"

namespace sham::serve {

std::string_view slot_state_name(SlotState state) noexcept {
  switch (state) {
    case SlotState::kIdle:
      return "idle";
    case SlotState::kQueued:
      return "queued";
    case SlotState::kProcessing:
      return "processing";
    case SlotState::kDone:
      return "done";
  }
  return "unknown";
}

std::string SlotStats::to_json(int indent) const {
  util::JsonWriter w{indent};
  w.begin_object();
  w.field("schema_version", kSchemaVersion);
  w.field("slot_id", static_cast<std::uint64_t>(slot_id));
  w.field("state", slot_state_name(state));
  w.field("served", served);
  w.field("expired", expired);
  w.field("invalid", invalid);
  w.field("internal_error", internal_error);
  w.field("batches", batches);
  w.field("busy_seconds", busy_seconds);
  w.field("detect_seconds", detect_seconds);
  w.field("queue_wait_seconds", queue_wait_seconds);
  w.end_object();
  return w.str();
}

}  // namespace sham::serve
