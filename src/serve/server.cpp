#include "serve/server.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace sham::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The DetectRequest a ServeRequest stands for — the serve path never has
/// detection semantics of its own.
detect::DetectRequest to_detect_request(const ServeRequest& request) {
  detect::DetectRequest q;
  q.references = request.references;
  q.unicode_references = request.unicode_references;
  if (request.idns != nullptr) {
    q.idns = std::span<const detect::IdnEntry>{*request.idns};
  }
  return q;
}

}  // namespace

std::string_view status_name(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kShed:
      return "shed";
    case ServeStatus::kExpired:
      return "expired";
    case ServeStatus::kInvalid:
      return "invalid";
    case ServeStatus::kShutdown:
      return "shutdown";
    case ServeStatus::kInternalError:
      return "internal_error";
  }
  return "unknown";
}

std::string_view overload_policy_name(OverloadPolicy policy) noexcept {
  switch (policy) {
    case OverloadPolicy::kRejectWhenFull:
      return "reject-when-full";
    case OverloadPolicy::kBlock:
      return "block";
  }
  return "unknown";
}

std::string ServerStats::to_json(int indent) const {
  util::JsonWriter w{indent};
  w.begin_object();
  w.field("schema_version", kSchemaVersion);
  w.field("submitted", submitted);
  w.field("admitted", admitted);
  w.field("shed", shed);
  w.field("served", served);
  w.field("expired", expired);
  w.field("invalid", invalid);
  w.field("shutdown", shutdown);
  w.field("internal_error", internal_error);
  w.field("batches", batches);
  w.field("coalesced_requests", coalesced_requests);
  w.field("coalescing_ratio", coalescing_ratio());
  w.field("queue_depth", static_cast<std::uint64_t>(queue_depth));
  w.field("peak_queue_depth", static_cast<std::uint64_t>(peak_queue_depth));
  w.field("detect_seconds", detect_seconds);
  w.field("queue_wait_seconds", queue_wait_seconds);
  w.field("running", running);
  w.field("paused", paused);
  w.key("slots").begin_array();
  for (const auto& slot : slots) w.raw(slot.to_json());
  w.end_array();
  w.end_object();
  return w.str();
}

/// One admitted request waiting for (or claimed by) a slot.
struct DetectionServer::Pending {
  std::uint64_t id = 0;
  ServeRequest request;
  std::shared_ptr<ResponseFuture::Channel> channel =
      std::make_shared<ResponseFuture::Channel>();
  Clock::time_point admitted_at{};
  Clock::time_point deadline = Clock::time_point::max();
  /// Coalescing key: zone-snapshot content fingerprint + the HomoglyphDb
  /// generation observed at admission.
  std::uint64_t zone_fingerprint = 0;
  std::uint64_t generation = 0;
};

DetectionServer::DetectionServer(const homoglyph::HomoglyphDb& db,
                                 detect::EngineOptions engine_options,
                                 ServerOptions options)
    : db_{&db}, engine_{db, engine_options}, options_{options} {
  options_.slots = std::max<std::size_t>(1, options_.slots);
  options_.queue_capacity = std::max<std::size_t>(1, options_.queue_capacity);
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  paused_ = options_.start_paused;
  slot_stats_.resize(options_.slots);
  for (std::size_t i = 0; i < options_.slots; ++i) slot_stats_[i].slot_id = i;
  slots_.reserve(options_.slots);
  for (std::size_t i = 0; i < options_.slots; ++i) {
    slots_.emplace_back([this, i] { slot_loop(i); });
  }
}

DetectionServer::~DetectionServer() { stop(); }

ResponseFuture DetectionServer::submit(ServeRequest request) {
  // Same boundary as Engine::detect: malformed requests throw here,
  // synchronously, before any future exists.
  detect::validate_request(to_detect_request(request));

  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  if (pending->request.idns != nullptr) {
    pending->zone_fingerprint = detect::label_set_fingerprint(
        std::span<const detect::IdnEntry>{*pending->request.idns});
  }
  pending->generation = db_->generation();
  ResponseFuture future{pending->channel};
  const auto timeout =
      pending->request.timeout.value_or(options_.default_timeout);

  std::unique_lock lock{mutex_};
  ++totals_.submitted;
  pending->id = next_id_++;
  const auto respond_terminal = [&](ServeStatus status, std::uint64_t& counter) {
    ++counter;
    ServeResponse response;
    response.request_id = pending->id;
    response.status = status;
    pending->channel->set(std::move(response));
  };
  if (stopping_) {
    respond_terminal(ServeStatus::kShutdown, totals_.shutdown);
    return future;
  }
  if (queue_.size() >= options_.queue_capacity) {
    if (options_.overload == OverloadPolicy::kRejectWhenFull) {
      respond_terminal(ServeStatus::kShed, totals_.shed);
      return future;
    }
    space_cv_.wait(lock, [this] {
      return stopping_ || queue_.size() < options_.queue_capacity;
    });
    if (stopping_) {
      respond_terminal(ServeStatus::kShutdown, totals_.shutdown);
      return future;
    }
  }
  pending->admitted_at = Clock::now();
  if (timeout.count() > 0) pending->deadline = pending->admitted_at + timeout;
  ++totals_.admitted;
  queue_.push_back(std::move(pending));
  totals_.peak_queue_depth = std::max(totals_.peak_queue_depth, queue_.size());
  lock.unlock();
  work_cv_.notify_one();
  return future;
}

ServeResponse DetectionServer::detect_sync(ServeRequest request) {
  return submit(std::move(request)).get();
}

void DetectionServer::pause() {
  {
    std::lock_guard lock{mutex_};
    paused_ = true;
  }
  work_cv_.notify_all();
}

void DetectionServer::resume() {
  {
    std::lock_guard lock{mutex_};
    paused_ = false;
  }
  work_cv_.notify_all();
}

void DetectionServer::stop() {
  std::vector<std::unique_ptr<Pending>> orphans;
  {
    std::lock_guard lock{mutex_};
    if (!stopping_) {
      stopping_ = true;
      while (!queue_.empty()) {
        orphans.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      totals_.shutdown += orphans.size();
    }
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& orphan : orphans) {
    ServeResponse response;
    response.request_id = orphan->id;
    response.status = ServeStatus::kShutdown;
    orphan->channel->set(std::move(response));
  }
  for (auto& slot : slots_) {
    if (slot.joinable()) slot.join();
  }
}

std::vector<std::unique_ptr<DetectionServer::Pending>>
DetectionServer::claim_batch_locked() {
  std::vector<std::unique_ptr<Pending>> batch;
  if (queue_.empty()) return batch;
  // Head: the oldest kHigh request if any, else the oldest overall.
  std::size_t head = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i]->request.priority == Priority::kHigh) {
      head = i;
      break;
    }
  }
  batch.push_back(std::move(queue_[head]));
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(head));
  // Same-snapshot followers, in FIFO order, up to the batch cap.
  const auto fingerprint = batch.front()->zone_fingerprint;
  const auto generation = batch.front()->generation;
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.max_batch;) {
    if ((*it)->zone_fingerprint == fingerprint && (*it)->generation == generation) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

void DetectionServer::slot_loop(std::size_t slot_id) {
  auto& slot = slot_stats_[slot_id];
  for (;;) {
    std::unique_lock lock{mutex_};
    slot.state = SlotState::kIdle;
    work_cv_.wait(lock, [this] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (stopping_) return;
    slot.state = SlotState::kQueued;
    auto batch = claim_batch_locked();
    const auto pickup = Clock::now();
    const std::uint64_t dispatch_base = dispatch_counter_;
    dispatch_counter_ += batch.size();
    lock.unlock();
    space_cv_.notify_all();  // freed queue_capacity - batch.size() slots

    std::size_t live = 0;
    for (const auto& pending : batch) {
      if (pickup <= pending->deadline) ++live;
    }
    {
      std::lock_guard state_lock{mutex_};
      slot.state = SlotState::kProcessing;
    }
    std::uint64_t served = 0;
    std::uint64_t expired = 0;
    std::uint64_t invalid = 0;
    std::uint64_t internal_error = 0;
    double detect_seconds = 0.0;
    double queue_wait = 0.0;
    std::vector<ServeResponse> responses;
    responses.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto& pending = *batch[i];
      ServeResponse response;
      response.request_id = pending.id;
      response.slot_id = slot_id;
      response.dispatch_order = dispatch_base + i + 1;
      response.queue_seconds = seconds_between(pending.admitted_at, pickup);
      queue_wait += response.queue_seconds;
      if (pickup > pending.deadline) {
        response.status = ServeStatus::kExpired;
        ++expired;
      } else {
        try {
          const auto start = Clock::now();
          auto result = engine_.detect(to_detect_request(pending.request));
          detect_seconds += seconds_between(start, Clock::now());
          response.status = ServeStatus::kOk;
          response.matches = std::move(result.matches);
          response.stats = result.stats;
          response.batch_size = live;
          ++served;
        } catch (const std::invalid_argument& error) {
          // Defensive: submit() already validated, but a request model
          // change must degrade to a typed error, not a dead future.
          response.status = ServeStatus::kInvalid;
          response.error = error.what();
          ++invalid;
        } catch (const std::exception& error) {
          // Anything else the engine throws (bad_alloc, a failed thread
          // spawn, ...) answers this request only: escaping the slot
          // thread would terminate the process with every future pending.
          response.status = ServeStatus::kInternalError;
          response.error = error.what();
          ++internal_error;
        } catch (...) {
          response.status = ServeStatus::kInternalError;
          response.error = "unknown exception";
          ++internal_error;
        }
      }
      responses.push_back(std::move(response));
    }

    // Merge counters BEFORE delivering the responses: a caller observing
    // its future resolved must see this batch reflected in stats().
    lock.lock();
    slot.state = SlotState::kDone;
    slot.served += served;
    slot.expired += expired;
    slot.invalid += invalid;
    slot.internal_error += internal_error;
    const bool ran = served + invalid + internal_error > 0;
    if (ran) ++slot.batches;
    slot.busy_seconds += seconds_between(pickup, Clock::now());
    slot.detect_seconds += detect_seconds;
    slot.queue_wait_seconds += queue_wait;
    totals_.served += served;
    totals_.expired += expired;
    totals_.invalid += invalid;
    totals_.internal_error += internal_error;
    if (ran) ++totals_.batches;
    if (live > 1) totals_.coalesced_requests += served;
    totals_.detect_seconds += detect_seconds;
    totals_.queue_wait_seconds += queue_wait;
    lock.unlock();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i]->channel->set(std::move(responses[i]));
    }
  }
}

ServerStats DetectionServer::stats() const {
  std::lock_guard lock{mutex_};
  ServerStats out = totals_;
  out.queue_depth = queue_.size();
  out.running = !stopping_;
  out.paused = paused_;
  out.slots = slot_stats_;
  return out;
}

}  // namespace sham::serve
