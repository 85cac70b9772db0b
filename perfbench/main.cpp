// shambench — the repository benchmark's program (perfbench/run.py builds
// and invokes it).
//
//   shambench prepare --seed N --cache DIR
//       generate (or reuse) the seeded inputs under DIR
//   shambench run --workload zone_scan|serve_check|db_build --seed N
//                 --seconds S --trace 0|1 --cache DIR --work DIR
//       run one workload; the last stdout line is the result JSON
//
// Every run prints every metric of its mode: the end-to-end list untraced,
// the per-layer list traced. A workload leaves out the per-layer metrics of
// layers it does not call; they are printed as 0.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.hpp"
#include "workloads.hpp"

namespace {

using namespace shambench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json, with the same units.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"db.load_s", "s"},
    {"detect.engine_init_s", "s"},
    {"proc.cpu_user_s", "s"},
    {"proc.cpu_sys_s", "s"},
    {"proc.rss_peak_mib", "MiB"},
    {"trace.overhead_pct", "%"},
    {"db.artifact_bytes", "B"},
    {"measure.read_mib_per_s", "MiB/s"},
    {"dns.records_per_s", "1/s"},
    {"dns.records", "count"},
    {"dns.bytes", "B"},
    {"idna.names_per_s", "1/s"},
    {"idna.idns", "count"},
    {"idna.rejected", "count"},
    {"measure.producer_blocked_pct", "%"},
    {"measure.worker_wait_pct", "%"},
    {"detect.idns_per_s", "1/s"},
    {"detect.candidates", "count"},
    {"detect.threads_used", "count"},
    {"measure.merge_pct", "%"},
    {"measure.shard_speedup", "x"},
    {"serve.init_pct", "%"},
    {"serve.submits_per_s", "1/s"},
    {"serve.queue_pct", "%"},
    {"serve.detect_pct", "%"},
    {"detect.memo_hit_pct", "%"},
    {"detect.index_hit_pct", "%"},
    {"serve.batch_size_mean", "count"},
    {"serve.peak_queue_depth", "count"},
    {"serve.shed", "count"},
    {"serve.expired", "count"},
    {"loadgen.late_pct", "%"},
    {"font.render_glyphs_per_s", "1/s"},
    {"simchar.delta_evals_per_s", "1/s"},
    {"simchar.delta_evals", "count"},
    {"simchar.pair_yield_ppm", "ppm"},
    {"simchar.sparse_pct", "%"},
    {"simchar.panel_glyphs_per_s", "1/s"},
    {"homoglyph.pairs_per_s", "1/s"},
    {"detect.refs_indexed_per_s", "1/s"},
    {"db.write_mib_per_s", "MiB/s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "shambench: %s\n"
               "usage: shambench prepare --seed N --cache DIR\n"
               "       shambench run --workload W --seed N --seconds S --trace 0|1 "
               "--cache DIR --work DIR\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& value, const char* what) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    usage(what);
  }
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    usage(what);
  }
}

void print_context(const RunArgs& args, const Inputs& in) {
  std::printf(
      "context {\"workload\": \"%s\", \"trace\": %d, \"seed\": %llu, \"seconds\": %.3f, "
      "\"nproc\": %u, \"kernel_level\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"zone_domains\": %zu, \"references\": %zu, "
      "\"font_scale\": %.2f, \"font_glyphs\": %zu, \"zone_idns\": %zu, "
      "\"zone_bytes\": %zu, \"artifact_bytes\": %zu, \"zone_fingerprint\": \"%s\", "
      "\"artifact_fingerprint\": \"%s\"}\n",
      args.workload.c_str(), args.trace ? 1 : 0, static_cast<unsigned long long>(args.seed),
      args.seconds, std::thread::hardware_concurrency(),
      std::string{sham::kernels::level_name(sham::kernels::active_level())}.c_str(),
      SHAMBENCH_BUILD_TYPE, SHAMBENCH_COMPILER, kZoneDomains, kReferences, kFontScale,
      in.glyphs, in.idn_aces.size(), in.zone_bytes, in.artifact_bytes,
      hex64(in.zone_fingerprint).c_str(), hex64(in.artifact_fingerprint).c_str());
}

/// The final line: every metric of the mode, in list order.
void print_result(const RunArgs& args, const RunResult& r) {
  const auto specs = args.trace ? std::span<const MetricSpec>{kPerLayer}
                                : std::span<const MetricSpec>{kEndToEnd};
  for (const auto& m : r.metrics) {
    bool listed = false;
    for (const auto& s : specs) listed = listed || (m.name == s.name && m.unit == s.unit);
    if (!listed) throw std::logic_error{"metric " + m.name + " is not in the metric list"};
  }
  std::string metrics;
  for (const auto& s : specs) {
    double value = 0.0;
    for (const auto& m : r.metrics) {
      if (m.name == s.name) value = m.value;
    }
    if (!std::isfinite(value)) throw std::runtime_error{std::string{"metric "} + s.name +
                                                        " is not finite"};
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", s.name, value, s.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
}

int run(const RunArgs& args) {
  const auto inputs = load_inputs(args.inputs_root, args.seed);
  std::filesystem::create_directories(args.work_dir);
  RunResult r;
  if (args.workload == "zone_scan") {
    r = run_zone_scan(args, inputs);
  } else if (args.workload == "serve_check") {
    r = run_serve_check(args, inputs);
  } else if (args.workload == "db_build") {
    r = run_db_build(args, inputs);
  } else {
    usage("unknown workload");
  }
  if (r.attempted == 0) r.fail("no operation was attempted");
  print_context(args, inputs);
  for (const auto& line : r.notes) std::printf("%s\n", line.c_str());
  for (const auto& line : r.errors) {
    std::printf("ORACLE FAILURE: %s\n", line.c_str());
    std::fprintf(stderr, "ORACLE FAILURE: %s\n", line.c_str());
  }
  print_result(args, r);
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string command = argv[1];
  RunArgs args;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag without a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(value, "--seed needs a non-negative integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value, "--seconds needs a positive integer"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace needs 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--cache") {
      args.inputs_root = value;
    } else if (flag == "--work") {
      args.work_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_seed || args.inputs_root.empty()) usage("--seed and --cache are required");
  try {
    if (command == "prepare") {
      const auto dir = prepare_inputs(args.inputs_root, args.seed);
      std::fprintf(stderr, "inputs ready in %s\n", dir.c_str());
      return 0;
    }
    if (command == "run") {
      if (args.work_dir.empty() || args.seconds <= 0.0) usage("--work and --seconds are required");
      return run(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shambench %s: %s\n", command.c_str(), e.what());
    return 3;
  }
  usage("unknown command");
}
