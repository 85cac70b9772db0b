// The three workloads. Each runs its timed region for RunArgs::seconds,
// checks its outputs against an oracle after timing, and returns the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include "common.hpp"
#include "inputs.hpp"

namespace shambench {

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

[[nodiscard]] RunResult run_zone_scan(const RunArgs& args, const Inputs& inputs);
[[nodiscard]] RunResult run_serve_check(const RunArgs& args, const Inputs& inputs);
[[nodiscard]] RunResult run_db_build(const RunArgs& args, const Inputs& inputs);

}  // namespace shambench
