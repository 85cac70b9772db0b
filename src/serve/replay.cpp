#include "serve/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace sham::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Nearest-rank percentile over an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

ReplayWorkload make_replay_workload(const homoglyph::HomoglyphDb& db,
                                    std::size_t reference_lists,
                                    std::size_t refs_per_list, std::size_t zones,
                                    std::size_t idns_per_zone,
                                    std::uint64_t seed) {
  util::Rng rng{seed};
  ReplayWorkload w;
  w.reference_lists.resize(reference_lists);
  for (auto& list : w.reference_lists) {
    for (std::size_t i = 0; i < refs_per_list; ++i) {
      std::string name;
      const std::size_t n = 3 + rng.below(8);
      for (std::size_t j = 0; j < n; ++j) {
        name += static_cast<char>('a' + rng.below(26));
      }
      list.push_back(name);
    }
  }
  for (std::size_t z = 0; z < zones; ++z) {
    auto zone = std::make_shared<std::vector<detect::IdnEntry>>();
    for (std::size_t i = 0; i < idns_per_zone; ++i) {
      const auto& list = w.reference_lists[rng.below(w.reference_lists.size())];
      const auto& ref = list[rng.below(list.size())];
      unicode::U32String label;
      for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
      const std::size_t muts = 1 + rng.below(2);
      for (std::size_t m = 0; m < muts; ++m) {
        const auto pos = rng.below(label.size());
        const auto subs = db.homoglyphs_of(label[pos]);
        // Half genuine homoglyph substitutions, half junk characters.
        label[pos] = (!subs.empty() && rng.below(2) == 0)
                         ? subs[rng.below(subs.size())]
                         : static_cast<unicode::CodePoint>(0x3042 + rng.below(64));
      }
      zone->push_back({"", label});
    }
    w.zones.push_back(std::move(zone));
  }
  return w;
}

std::string ReplayReport::to_json(int indent) const {
  util::JsonWriter w{indent};
  w.begin_object();
  w.field("schema_version", kSchemaVersion);
  w.field("clients", static_cast<std::uint64_t>(clients));
  w.field("sent", sent);
  w.field("ok", ok);
  w.field("shed", shed);
  w.field("expired", expired);
  w.field("other", other);
  w.field("internal_error", internal_error);
  w.field("wall_seconds", wall_seconds);
  w.field("throughput_rps", throughput_rps);
  w.field("p50_ms", p50_ms);
  w.field("p95_ms", p95_ms);
  w.field("p99_ms", p99_ms);
  w.field("max_ms", max_ms);
  w.field("shed_rate", shed_rate);
  w.field("coalescing_ratio", coalescing_ratio);
  w.field("verified", verified);
  w.field("mismatches", mismatches);
  w.end_object();
  return w.str();
}

ReplayReport run_replay(DetectionServer& server, const homoglyph::HomoglyphDb& db,
                        const ReplayWorkload& workload, const ReplayConfig& config) {
  ReplayReport report;
  report.clients = config.clients;

  // Ground truth per (reference list, zone) pair: serial, cache-free —
  // the same baseline the engine test suite compares everything against.
  std::vector<std::vector<std::vector<detect::Match>>> truth;
  if (config.verify) {
    const detect::Engine serial{
        db, {.strategy = detect::Strategy::kSerial, .threads = 1, .cache = false}};
    truth.resize(workload.reference_lists.size());
    for (std::size_t r = 0; r < workload.reference_lists.size(); ++r) {
      for (const auto& zone : workload.zones) {
        truth[r].push_back(
            serial
                .detect({.references = workload.reference_lists[r],
                         .idns = std::span<const detect::IdnEntry>{*zone}})
                .matches);
      }
    }
  }

  const auto before = server.stats();
  std::mutex merge_mutex;
  std::vector<double> latencies_ms;  // kOk only
  const auto wall_start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  for (std::size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng{config.seed * 1000003ULL + c};
      std::vector<double> local_ms;
      std::uint64_t ok = 0, shed = 0, expired = 0, other = 0, internal_error = 0;
      std::uint64_t mismatches = 0;
      for (std::size_t i = 0; i < config.requests_per_client; ++i) {
        const auto r = rng.below(workload.reference_lists.size());
        const auto z = rng.below(workload.zones.size());
        ServeRequest request;
        request.references = workload.reference_lists[r];
        request.idns = workload.zones[z];
        if (config.high_priority_every != 0 &&
            (i + 1) % config.high_priority_every == 0) {
          request.priority = Priority::kHigh;
        }
        if (config.timeout_ms != 0) {
          request.timeout = std::chrono::milliseconds{config.timeout_ms};
        }
        const auto start = Clock::now();
        const auto response = server.detect_sync(std::move(request));
        const auto elapsed =
            std::chrono::duration<double, std::milli>(Clock::now() - start).count();
        switch (response.status) {
          case ServeStatus::kOk:
            ++ok;
            local_ms.push_back(elapsed);
            if (config.verify && response.matches != truth[r][z]) ++mismatches;
            break;
          case ServeStatus::kShed:
            ++shed;
            break;
          case ServeStatus::kExpired:
            ++expired;
            break;
          case ServeStatus::kInternalError:
            ++internal_error;
            break;
          default:
            ++other;
            break;
        }
      }
      std::lock_guard lock{merge_mutex};
      report.ok += ok;
      report.shed += shed;
      report.expired += expired;
      report.other += other;
      report.internal_error += internal_error;
      report.mismatches += mismatches;
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(), local_ms.end());
    });
  }
  for (auto& client : clients) client.join();
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  report.sent =
      report.ok + report.shed + report.expired + report.other + report.internal_error;
  report.verified = report.mismatches == 0;
  report.shed_rate = report.sent == 0
                         ? 0.0
                         : static_cast<double>(report.shed) /
                               static_cast<double>(report.sent);
  report.throughput_rps = report.wall_seconds <= 0.0
                              ? 0.0
                              : static_cast<double>(report.ok) / report.wall_seconds;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  report.p50_ms = percentile(latencies_ms, 50.0);
  report.p95_ms = percentile(latencies_ms, 95.0);
  report.p99_ms = percentile(latencies_ms, 99.0);
  report.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  // Coalescing over this replay only (the server may have prior traffic).
  const auto after = server.stats();
  const auto served = after.served - before.served;
  const auto batches = after.batches - before.batches;
  report.coalescing_ratio =
      batches == 0 ? 0.0
                   : static_cast<double>(served) / static_cast<double>(batches);
  return report;
}

}  // namespace sham::serve
