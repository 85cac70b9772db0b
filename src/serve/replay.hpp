// Traffic replay against a DetectionServer: N closed-loop client threads
// submit a deterministic mixed workload (rotating reference lists ×
// alternating zone snapshots — cold builds, warm index hits, and memo
// hits all occur) and the driver reports latency percentiles,
// throughput, shed rate, and the server's coalescing ratio.
//
// Verification mode recomputes every (reference list, zone) ground truth
// with a cache-free serial engine and checks each kOk response is
// byte-identical — the serve path must never change detection output.
//
// Shared by bench/serve_replay.cpp (BENCH_serve.json) and the
// `shamfinder_cli replay` command.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "homoglyph/homoglyph_db.hpp"
#include "serve/server.hpp"

namespace sham::serve {

struct ReplayWorkload {
  std::vector<std::vector<std::string>> reference_lists;
  std::vector<ZoneSnapshot> zones;
};

/// Deterministic synthetic workload: reference lists of random LDH names,
/// zone snapshots whose labels mutate those names with genuine homoglyphs
/// (matches occur) and junk (rejections occur). Same seed, same workload.
[[nodiscard]] ReplayWorkload make_replay_workload(
    const homoglyph::HomoglyphDb& db, std::size_t reference_lists,
    std::size_t refs_per_list, std::size_t zones, std::size_t idns_per_zone,
    std::uint64_t seed);

struct ReplayConfig {
  std::size_t clients = 4;
  std::size_t requests_per_client = 64;
  std::uint64_t seed = 20260808;
  /// Every Nth request is submitted kHigh (0 disables priority traffic).
  std::size_t high_priority_every = 8;
  /// Per-request queue deadline in milliseconds (0 = none).
  std::uint64_t timeout_ms = 0;
  /// Check kOk responses against serial cache-free ground truth.
  bool verify = true;
};

struct ReplayReport {
  /// Serialization schema of to_json(); bump on rename/removal/meaning
  /// change (additions are backward-compatible).
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::size_t clients = 0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t other = 0;  // kInvalid/kShutdown — 0 in a healthy replay
  std::uint64_t internal_error = 0;  // kInternalError — 0 in a healthy replay
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  // kOk responses per wall-clock second
  double p50_ms = 0.0;          // latency of kOk requests, submit -> response
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double shed_rate = 0.0;           // shed / sent
  double coalescing_ratio = 0.0;    // server-reported (served per batch)
  bool verified = true;             // false when any kOk response mismatched
  std::uint64_t mismatches = 0;

  /// One JSON object over every field above plus "schema_version".
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Drive `server` with the workload under `config`. `db` must be the
/// database the server was built over (used for ground-truth verification).
[[nodiscard]] ReplayReport run_replay(DetectionServer& server,
                                      const homoglyph::HomoglyphDb& db,
                                      const ReplayWorkload& workload,
                                      const ReplayConfig& config);

}  // namespace sham::serve
