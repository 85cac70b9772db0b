// Kernel dispatch-level sweep: throughput of the batched ∆ kernel at
// every level the host can run, speedups vs the scalar reference, and the
// ≥4x batched-∆ criterion (hardware_skipped on hosts with no vector
// level). Merges a "delta_kernel" section into BENCH_simchar.json next to
// the Step II grid that kernel accelerates.
//
//   $ ./bench/kernel_sweep            # full sweep + JSON merge
//   $ ./bench/kernel_sweep --smoke    # cross-level equivalence only
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/kernels.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace sham;
using kernels::GlyphPanel;
using kernels::kGlyphWords;
using kernels::Level;

constexpr std::size_t kPanelGlyphs = 4096;
constexpr std::size_t kQueries = 128;
constexpr int kReps = 5;  // best-of to shed scheduler noise

struct Workload {
  GlyphPanel panel;
  std::vector<std::array<std::uint64_t, kGlyphWords>> glyphs;
  std::vector<std::array<std::uint64_t, kGlyphWords>> queries;
};

Workload make_workload(std::uint64_t seed) {
  util::Rng rng{seed};
  Workload w;
  w.glyphs.resize(kPanelGlyphs);
  w.panel.reset(kPanelGlyphs);
  for (std::size_t i = 0; i < kPanelGlyphs; ++i) {
    for (auto& word : w.glyphs[i]) word = rng.next();
    w.panel.set_glyph(i, w.glyphs[i].data());
  }
  w.queries.resize(kQueries);
  for (auto& q : w.queries) {
    for (auto& word : q) word = rng.next();
  }
  return w;
}

/// Seconds for one full delta_batch pass (every query against the panel),
/// best of kReps. `sink` defeats dead-code elimination.
double time_delta(const Workload& w, std::int64_t& sink) {
  std::vector<std::int32_t> out(kPanelGlyphs);
  double best = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch watch;
    for (const auto& q : w.queries) {
      kernels::delta_batch_u1024(q.data(), w.panel, 0, kPanelGlyphs, out.data());
      sink += out[0] + out[kPanelGlyphs - 1];
    }
    best = std::min(best, watch.seconds());
  }
  return best;
}

int run_smoke() {
  const auto w = make_workload(20260808);
  bool ok = true;

  // Scalar baselines.
  std::vector<std::vector<std::int32_t>> delta_truth(kQueries,
                                                     std::vector<std::int32_t>(kPanelGlyphs));
  {
    kernels::ScopedKernelLevel pin{Level::kScalar};
    ok = ok && pin.forced();
    for (std::size_t q = 0; q < kQueries; ++q) {
      kernels::delta_batch_u1024(w.queries[q].data(), w.panel, 0, kPanelGlyphs,
                                 delta_truth[q].data());
    }
  }

  for (const auto level : kernels::supported_levels()) {
    kernels::ScopedKernelLevel pin{level};
    bool same = pin.forced();
    std::vector<std::int32_t> out(kPanelGlyphs);
    for (std::size_t q = 0; q < kQueries && same; ++q) {
      kernels::delta_batch_u1024(w.queries[q].data(), w.panel, 0, kPanelGlyphs,
                                 out.data());
      same = same && out == delta_truth[q];
    }
    for (std::size_t i = 0; i < kPanelGlyphs && same; i += 97) {
      same = kernels::delta_u1024(w.queries[0].data(), w.glyphs[i].data()) ==
             delta_truth[0][i];
    }
    std::printf("  kernel level %-6s %s\n",
                std::string{kernels::level_name(level)}.c_str(),
                same ? "identical" : "MISMATCH");
    ok = ok && same;
  }
  std::printf("kernel equivalence smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// Merge `line` (a complete `  "delta_kernel": {...},` line) into
/// BENCH_simchar.json right after the opening brace, replacing any earlier
/// delta_kernel line. Creates a minimal file when none exists.
void merge_into_bench_json(const std::string& section) {
  std::ifstream in{"BENCH_simchar.json"};
  std::string merged;
  if (in) {
    std::string line;
    bool inserted = false;
    while (std::getline(in, line)) {
      if (line.find("\"delta_kernel\":") != std::string::npos) continue;
      merged += line;
      merged += '\n';
      if (!inserted && line.find('{') == 0) {
        merged += "  \"delta_kernel\": " + section + ",\n";
        inserted = true;
      }
    }
    if (!inserted) {
      merged = "{\n  \"delta_kernel\": " + section + "\n}\n";
    }
  } else {
    merged = "{\n  \"delta_kernel\": " + section + "\n}\n";
  }
  if (std::FILE* f = std::fopen("BENCH_simchar.json", "w")) {
    std::fwrite(merged.data(), 1, merged.size(), f);
    std::fclose(f);
    std::printf("merged delta_kernel section into BENCH_simchar.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  bench::header("SIMD kernel layer: dispatch-level sweep");

  const auto w = make_workload(20260808);
  const auto levels = kernels::supported_levels();
  const double deltas_per_pass =
      static_cast<double>(kPanelGlyphs) * static_cast<double>(kQueries);

  util::TextTable t{{"level", "∆ batch s", "M∆/s", "∆ speedup"},
                    {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                     util::Align::kRight}};

  std::int64_t sink = 0;
  double scalar_delta = 0.0;
  double best_delta_speedup = 1.0;
  std::string level_json;
  for (const auto level : levels) {
    kernels::ScopedKernelLevel pin{level};
    if (!pin.forced()) continue;
    const double delta_s = time_delta(w, sink);
    if (level == Level::kScalar) scalar_delta = delta_s;
    const double delta_speedup = scalar_delta / delta_s;
    if (level != Level::kScalar) {
      best_delta_speedup = std::max(best_delta_speedup, delta_speedup);
    }
    t.add_row({std::string{kernels::level_name(level)}, util::fixed(delta_s, 4),
               util::fixed(deltas_per_pass / delta_s / 1e6, 1),
               util::fixed(delta_speedup, 2) + "x"});
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"delta_seconds\": %.6f, \"delta_speedup\": %.2f}",
                  level_json.empty() ? "" : ", ",
                  std::string{kernels::level_name(level)}.c_str(), delta_s,
                  delta_speedup);
    level_json += buf;
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("(sink %lld)\n", static_cast<long long>(sink % 10));

  // ≥4x criterion: only judged when the host has a vector level at all.
  const bool vector_available = levels.size() > 1;
  const char* criterion = !vector_available ? "hardware_skipped"
                          : best_delta_speedup >= 4.0 ? "met"
                                                      : "FAILED";
  if (vector_available) {
    bench::shape("vector batched ∆ ≥4x the scalar reference",
                 best_delta_speedup >= 4.0);
  } else {
    std::printf("  shape: vector batched ∆ ≥4x scalar                    "
                "[SKIPPED: scalar-only host]\n");
  }

  char section[512];
  std::snprintf(section, sizeof section,
                "{\"active_level\": \"%s\", \"levels\": {%s}, "
                "\"best_delta_speedup\": %.2f, \"criterion_4x\": \"%s\"}",
                std::string{kernels::level_name(kernels::active_level())}.c_str(),
                level_json.c_str(), best_delta_speedup, criterion);
  merge_into_bench_json(section);
  return std::strcmp(criterion, "FAILED") == 0 ? 1 : 0;
}
