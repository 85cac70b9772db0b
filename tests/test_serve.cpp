// DetectionServer: slot scheduling, same-snapshot batching, shedding,
// deadlines, priorities, drain-on-stop — and above all: the serve path
// returns byte-identical results to calling the engine directly.
#include <gtest/gtest.h>

#include <chrono>
#include <atomic>
#include <limits>
#include <thread>

#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "simchar/simchar.hpp"

namespace sham::serve {
namespace {

using unicode::U32String;
using namespace std::chrono_literals;

homoglyph::HomoglyphDb test_db() {
  simchar::SimCharDb sim{{
      {'o', 0x043E, 0},
      {'o', 0x0585, 2},
      {'e', 0x00E9, 3},
      {'a', 0x0430, 1},
      {'i', 0x0131, 2},
  }};
  homoglyph::DbConfig config;
  config.use_uc = false;
  return homoglyph::HomoglyphDb{sim, unicode::ConfusablesDb::embedded(), config};
}

ZoneSnapshot zone_of(std::initializer_list<U32String> labels) {
  auto zone = std::make_shared<std::vector<detect::IdnEntry>>();
  for (const auto& label : labels) zone->push_back({"", label});
  return zone;
}

/// Ground truth: the serial cache-free engine on the equivalent request.
std::vector<detect::Match> direct(const homoglyph::HomoglyphDb& db,
                                  const std::vector<std::string>& refs,
                                  const ZoneSnapshot& zone) {
  const detect::Engine engine{
      db, {.strategy = detect::Strategy::kSerial, .threads = 1, .cache = false}};
  return engine
      .detect({.references = refs,
               .idns = std::span<const detect::IdnEntry>{*zone}})
      .matches;
}

TEST(Serve, ResultsMatchDirectEngineUnderEverySlotCountAndPolicy) {
  const auto db = test_db();
  const auto workload = make_replay_workload(db, 4, 8, 2, 150, 20260808);
  // Ground truth once per (list, zone) pair.
  std::vector<std::vector<std::vector<detect::Match>>> truth;
  for (const auto& refs : workload.reference_lists) {
    auto& per_zone = truth.emplace_back();
    for (const auto& zone : workload.zones) per_zone.push_back(direct(db, refs, zone));
  }
  for (const std::size_t slots : {1u, 2u, 4u}) {
    for (const auto policy :
         {OverloadPolicy::kRejectWhenFull, OverloadPolicy::kBlock}) {
      DetectionServer server{db,
                             {.strategy = detect::Strategy::kSkeleton, .threads = 1},
                             {.slots = slots, .queue_capacity = 256, .overload = policy}};
      std::vector<ResponseFuture> futures;
      std::vector<std::pair<std::size_t, std::size_t>> keys;
      for (std::size_t round = 0; round < 2; ++round) {  // cold then warm
        for (std::size_t r = 0; r < workload.reference_lists.size(); ++r) {
          for (std::size_t z = 0; z < workload.zones.size(); ++z) {
            ServeRequest request;
            request.references = workload.reference_lists[r];
            request.idns = workload.zones[z];
            futures.push_back(server.submit(std::move(request)));
            keys.emplace_back(r, z);
          }
        }
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        auto response = futures[i].get();
        ASSERT_EQ(response.status, ServeStatus::kOk)
            << "slots=" << slots << " policy=" << overload_policy_name(policy);
        EXPECT_EQ(response.api_version, kApiVersion);
        EXPECT_EQ(response.matches, truth[keys[i].first][keys[i].second])
            << "slots=" << slots << " request " << i;
      }
      const auto stats = server.stats();
      EXPECT_EQ(stats.served, futures.size());
      EXPECT_EQ(stats.shed, 0u);
      EXPECT_EQ(stats.queue_depth, 0u);
    }
  }
}

TEST(Serve, UnicodeReferencesFlowThrough) {
  const auto db = test_db();
  DetectionServer server{db};
  const auto zone = zone_of({{0x5DE5, 0x696D}, {'g', 0x043E, 'o', 'g', 'l', 'e'}});
  ServeRequest request;
  request.unicode_references = {{'g', 'o', 'o', 'g', 'l', 'e'}};
  request.idns = zone;
  const auto response = server.detect_sync(std::move(request));
  ASSERT_EQ(response.status, ServeStatus::kOk);
  ASSERT_EQ(response.matches.size(), 1u);
  EXPECT_EQ(response.matches[0].idn_index, 1u);
}

TEST(Serve, SameSnapshotRequestsCoalesceIntoOneBatch) {
  const auto db = test_db();
  DetectionServer server{
      db, {}, {.slots = 1, .queue_capacity = 32, .start_paused = true}};
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}, {'m', 0x0430, 'i', 'l'}});
  const std::vector<std::vector<std::string>> ref_lists{
      {"google"}, {"mail"}, {"google", "mail"}, {"ok"}, {"google"}, {"mail"}};
  std::vector<ResponseFuture> futures;
  for (const auto& refs : ref_lists) {
    ServeRequest request;
    request.references = refs;
    request.idns = zone;  // one shared snapshot: one coalescing key
    futures.push_back(server.submit(std::move(request)));
  }
  server.resume();
  for (auto& future : futures) {
    const auto response = future.get();
    ASSERT_EQ(response.status, ServeStatus::kOk);
    EXPECT_EQ(response.batch_size, futures.size());  // all six in one batch
    EXPECT_EQ(response.slot_id, 0u);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, futures.size());
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, futures.size());
  EXPECT_GT(stats.coalescing_ratio(), 1.0);
  EXPECT_EQ(stats.slots.at(0).batches, 1u);
}

TEST(Serve, DistinctSnapshotsDoNotCoalesce) {
  const auto db = test_db();
  DetectionServer server{
      db, {}, {.slots = 1, .queue_capacity = 32, .start_paused = true}};
  const auto zone_a = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  const auto zone_b = zone_of({{'m', 0x0430, 'i', 'l'}});
  std::vector<ResponseFuture> futures;
  for (const auto& zone : {zone_a, zone_b}) {
    ServeRequest request;
    request.references = {"google", "mail"};
    request.idns = zone;
    futures.push_back(server.submit(std::move(request)));
  }
  server.resume();
  for (auto& future : futures) {
    const auto response = future.get();
    ASSERT_EQ(response.status, ServeStatus::kOk);
    EXPECT_EQ(response.batch_size, 1u);
  }
  EXPECT_EQ(server.stats().batches, 2u);
}

TEST(Serve, EqualContentZonesCoalesceAcrossDistinctBuffers) {
  // The coalescing key is a content fingerprint, not the shared_ptr
  // address: two snapshots with identical labels share a batch.
  const auto db = test_db();
  DetectionServer server{
      db, {}, {.slots = 1, .queue_capacity = 8, .start_paused = true}};
  const auto zone_a = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  const auto zone_b = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  ASSERT_NE(zone_a.get(), zone_b.get());
  std::vector<ResponseFuture> futures;
  for (const auto& zone : {zone_a, zone_b}) {
    ServeRequest request;
    request.references = {"google"};
    request.idns = zone;
    futures.push_back(server.submit(std::move(request)));
  }
  server.resume();
  for (auto& future : futures) EXPECT_EQ(future.get().batch_size, 2u);
}

TEST(Serve, ShedsWhenQueueFullUnderRejectPolicy) {
  const auto db = test_db();
  DetectionServer server{db,
                         {},
                         {.slots = 1,
                          .queue_capacity = 2,
                          .overload = OverloadPolicy::kRejectWhenFull,
                          .start_paused = true}};
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  const auto make_request = [&] {
    ServeRequest request;
    request.references = {"google"};
    request.idns = zone;
    return request;
  };
  auto first = server.submit(make_request());
  auto second = server.submit(make_request());
  auto third = server.submit(make_request());  // queue full: shed, instantly
  EXPECT_TRUE(third.ready());
  const auto shed = third.get();
  EXPECT_EQ(shed.status, ServeStatus::kShed);
  EXPECT_TRUE(shed.matches.empty());
  {
    const auto stats = server.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.queue_depth, 2u);
    EXPECT_EQ(stats.peak_queue_depth, 2u);
  }
  server.resume();
  EXPECT_EQ(first.get().status, ServeStatus::kOk);
  EXPECT_EQ(second.get().status, ServeStatus::kOk);
  EXPECT_EQ(server.stats().shed, 1u);  // resume sheds nothing further
}

TEST(Serve, BlockPolicyAppliesBackpressureInsteadOfShedding) {
  const auto db = test_db();
  DetectionServer server{db,
                         {},
                         {.slots = 1,
                          .queue_capacity = 1,
                          .overload = OverloadPolicy::kBlock,
                          .start_paused = true}};
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  const auto make_request = [&] {
    ServeRequest request;
    request.references = {"google"};
    request.idns = zone;
    return request;
  };
  auto first = server.submit(make_request());
  // The queue (capacity 1) is full: the next submit must block, not shed.
  std::atomic<bool> submitted{false};
  std::thread blocked{[&] {
    auto second = server.submit(make_request());  // blocks until resume
    submitted = true;
    EXPECT_EQ(second.get().status, ServeStatus::kOk);
  }};
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(submitted.load());
  EXPECT_EQ(server.stats().shed, 0u);
  server.resume();  // slot drains the queue; the blocked submit proceeds
  blocked.join();
  EXPECT_EQ(first.get().status, ServeStatus::kOk);
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(Serve, QueueDeadlineExpiresWithoutRunningTheEngine) {
  const auto db = test_db();
  DetectionServer server{
      db, {}, {.slots = 1, .queue_capacity = 8, .start_paused = true}};
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  ServeRequest doomed;
  doomed.references = {"google"};
  doomed.idns = zone;
  doomed.timeout = 1ms;
  ServeRequest patient;
  patient.references = {"google"};
  patient.idns = zone;  // no timeout: server default (none)
  auto doomed_future = server.submit(std::move(doomed));
  auto patient_future = server.submit(std::move(patient));
  std::this_thread::sleep_for(20ms);  // let the deadline pass while paused
  server.resume();
  const auto expired = doomed_future.get();
  EXPECT_EQ(expired.status, ServeStatus::kExpired);
  EXPECT_TRUE(expired.matches.empty());
  EXPECT_GT(expired.queue_seconds, 0.0);
  EXPECT_EQ(patient_future.get().status, ServeStatus::kOk);
  const auto stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.served, 1u);
}

TEST(Serve, HighPriorityJumpsTheQueue) {
  const auto db = test_db();
  DetectionServer server{
      db, {}, {.slots = 1, .queue_capacity = 8, .start_paused = true}};
  // Three distinct zones so batching cannot merge them.
  const auto zone_a = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  const auto zone_b = zone_of({{'m', 0x0430, 'i', 'l'}});
  const auto zone_c = zone_of({{0x0585, 'k'}});
  const auto submit = [&](const ZoneSnapshot& zone, Priority priority) {
    ServeRequest request;
    request.references = {"google", "mail", "ok"};
    request.idns = zone;
    request.priority = priority;
    return server.submit(std::move(request));
  };
  auto normal_a = submit(zone_a, Priority::kNormal);
  auto normal_b = submit(zone_b, Priority::kNormal);
  auto high_c = submit(zone_c, Priority::kHigh);
  server.resume();
  const auto a = normal_a.get();
  const auto b = normal_b.get();
  const auto c = high_c.get();
  ASSERT_EQ(c.status, ServeStatus::kOk);
  // The high-priority request was dispatched first, FIFO among the rest.
  EXPECT_LT(c.dispatch_order, a.dispatch_order);
  EXPECT_LT(a.dispatch_order, b.dispatch_order);
}

TEST(Serve, InvalidRequestsThrowAtSubmitExactlyLikeTheEngine) {
  const auto db = test_db();
  DetectionServer server{db};
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  {
    ServeRequest request;  // empty reference label
    request.references = {"google", ""};
    request.idns = zone;
    EXPECT_THROW((void)server.submit(std::move(request)), std::invalid_argument);
  }
  {
    ServeRequest request;  // non-ASCII byte in an ASCII reference
    request.references = {"caf\xC3\xA9"};
    request.idns = zone;
    EXPECT_THROW((void)server.submit(std::move(request)), std::invalid_argument);
  }
  {
    ServeRequest request;  // both reference spans set
    request.references = {"google"};
    request.unicode_references = {{'p', 'i', 'e'}};
    request.idns = zone;
    EXPECT_THROW((void)server.submit(std::move(request)), std::invalid_argument);
  }
  // Rejected requests never touch the counters; the server still serves.
  EXPECT_EQ(server.stats().submitted, 0u);
  ServeRequest fine;
  fine.references = {"google"};
  fine.idns = zone;
  EXPECT_EQ(server.detect_sync(std::move(fine)).status, ServeStatus::kOk);
}

TEST(Serve, EmptyZoneShortCircuitsLikeTheEngine) {
  const auto db = test_db();
  DetectionServer server{db};
  ServeRequest request;
  request.references = {"google"};  // idns left null
  const auto response = server.detect_sync(std::move(request));
  EXPECT_EQ(response.status, ServeStatus::kOk);
  EXPECT_TRUE(response.matches.empty());
  EXPECT_EQ(response.stats.length_bucket_hits, 0u);
}

TEST(Serve, StatsJsonCarriesSchemaAndSlots) {
  const auto db = test_db();
  DetectionServer server{db, {}, {.slots = 2}};
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  ServeRequest request;
  request.references = {"google"};
  request.idns = zone;
  (void)server.detect_sync(std::move(request));
  const auto json = server.stats().to_json();
  EXPECT_NE(json.find("\"schema_version\":"), std::string::npos);
  EXPECT_NE(json.find("\"served\":1"), std::string::npos);
  EXPECT_NE(json.find("\"slots\":["), std::string::npos);
  EXPECT_NE(json.find("\"slot_id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"coalescing_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"idle\""), std::string::npos);
}

TEST(Serve, ReplaySmokeVerifiesAgainstGroundTruth) {
  const auto db = test_db();
  const auto workload = make_replay_workload(db, 6, 6, 2, 80, 7);
  DetectionServer server{db, {}, {.slots = 2, .queue_capacity = 64}};
  ReplayConfig config;
  config.clients = 4;
  config.requests_per_client = 12;
  const auto report = run_replay(server, db, workload, config);
  EXPECT_EQ(report.sent, 48u);
  EXPECT_EQ(report.ok + report.shed + report.expired + report.other, report.sent);
  EXPECT_GT(report.ok, 0u);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_GE(report.p95_ms, report.p50_ms);
  EXPECT_GE(report.p99_ms, report.p95_ms);
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"p99_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":"), std::string::npos);
}

TEST(Serve, EngineFailureAnswersInternalErrorAndSlotSurvives) {
  // A SIZE_MAX-thread engine makes the per-call ThreadPool throw
  // std::length_error from vector::reserve as soon as a request has more
  // than one label on its streamed side. Uncaught, that exception would
  // escape the slot thread and abort the process with every future
  // pending.
  const auto db = test_db();
  DetectionServer server{
      db, {.threads = std::numeric_limits<std::size_t>::max()}, {.slots = 1}};

  ServeRequest failing;
  failing.references = {"google", "mail"};
  failing.idns = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}, {'m', 0x0430, 'i', 'l'}});
  const auto failed = server.detect_sync(std::move(failing));
  EXPECT_EQ(failed.status, ServeStatus::kInternalError);
  EXPECT_EQ(status_name(failed.status), "internal_error");
  EXPECT_FALSE(failed.error.empty());
  EXPECT_TRUE(failed.matches.empty());

  // The same slot serves the next request (one label per side: no pool).
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  ServeRequest next;
  next.references = {"google"};
  next.idns = zone;
  const auto served = server.detect_sync(std::move(next));
  ASSERT_EQ(served.status, ServeStatus::kOk);
  EXPECT_EQ(served.matches, direct(db, {"google"}, zone));
  EXPECT_EQ(served.matches.size(), 1u);

  server.stop();
  const auto stats = server.stats();
  EXPECT_FALSE(stats.running);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.internal_error, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.shutdown, 0u);
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_EQ(stats.slots[0].internal_error, 1u);
  const auto json = stats.to_json();
  EXPECT_NE(json.find("\"internal_error\":1,\"batches\""), std::string::npos);
  EXPECT_NE(stats.slots[0].to_json().find("\"internal_error\":1"), std::string::npos);
}

// --- Drain-on-stop (registered as the serve_shutdown ctest) -----------------

TEST(ServeShutdown, StopAnswersQueuedRequestsAndDrainsCleanly) {
  const auto db = test_db();
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}});
  DetectionServer server{
      db, {}, {.slots = 2, .queue_capacity = 16, .start_paused = true}};
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 5; ++i) {
    ServeRequest request;
    request.references = {"google"};
    request.idns = zone;
    futures.push_back(server.submit(std::move(request)));
  }
  EXPECT_EQ(server.stats().queue_depth, 5u);
  server.stop();  // paused: nothing in flight; every queued request resolves
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, ServeStatus::kShutdown);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.shutdown, 5u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_FALSE(stats.running);
  // Admission after stop: immediate kShutdown, never a dead future.
  ServeRequest late;
  late.references = {"google"};
  late.idns = zone;
  auto refused = server.submit(std::move(late));
  EXPECT_TRUE(refused.ready());
  EXPECT_EQ(refused.get().status, ServeStatus::kShutdown);
  server.stop();  // idempotent
}

TEST(ServeShutdown, InFlightBatchFinishesBeforeJoin) {
  const auto db = test_db();
  const auto zone = zone_of({{'g', 0x043E, 'o', 'g', 'l', 'e'}, {'m', 0x0430, 'i', 'l'}});
  auto server = std::make_unique<DetectionServer>(
      db, detect::EngineOptions{}, ServerOptions{.slots = 1, .queue_capacity = 8});
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 4; ++i) {
    ServeRequest request;
    request.references = {"google", "mail"};
    request.idns = zone;
    futures.push_back(server->submit(std::move(request)));
  }
  server.reset();  // destructor stop(): in-flight completes, queue drains
  for (auto& future : futures) {
    const auto response = future.get();
    // Each request either ran to completion or was answered kShutdown —
    // no future is abandoned, no slot leaks (destructor joined them all).
    EXPECT_TRUE(response.status == ServeStatus::kOk ||
                response.status == ServeStatus::kShutdown)
        << status_name(response.status);
    if (response.status == ServeStatus::kOk) {
      EXPECT_EQ(response.matches.size(), 2u);
    }
  }
}

}  // namespace
}  // namespace sham::serve
