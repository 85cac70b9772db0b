// db_build: the calls `shamfinder_cli build-db --refs <10 K refs>` makes —
// SimCharDb::build, HomoglyphDb over the embedded UC, the reference
// SkeletonIndex, render_repertoire_panel, db::write_db_file — over the
// seeded paper font. It is the only workload that renders glyphs, mines
// pairs with the ∆ kernels and writes the artifact the other two read.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>

#include "db/artifact.hpp"
#include "detect/engine.hpp"
#include "font/metrics.hpp"
#include "unicode/idna_properties.hpp"
#include "workloads.hpp"

namespace shambench {

using namespace sham;

namespace {

constexpr int kMinBuilds = 3;

struct Build {
  double seconds = 0.0;
  BuildTimes times;
};

Build one_build(const font::FontSource& font, std::span<const std::string> refs,
                const std::string& path, std::optional<Databases>* keep, Tracer* tracer) {
  Build b;
  ScopedSpan root{tracer, "db_build.build"};
  const auto t0 = Clock::now();
  auto dbs = build_databases(font, b.times, tracer, root.id());
  write_artifact(font, dbs, refs, path, b.times, tracer, root.id());
  b.seconds = seconds_between(t0, Clock::now());
  if (keep != nullptr) keep->emplace(std::move(dbs));
  return b;
}

std::vector<Build> builds_for(double seconds, const font::FontSource& font,
                              std::span<const std::string> refs, const std::string& path,
                              std::optional<Databases>* keep, Tracer* tracer) {
  std::vector<Build> builds;
  const auto start = Clock::now();
  while (builds.size() < static_cast<std::size_t>(kMinBuilds) ||
         seconds_between(start, Clock::now()) < seconds) {
    builds.push_back(one_build(font, refs, path, keep, tracer));
  }
  return builds;
}

std::vector<double> build_seconds(const std::vector<Build>& builds) {
  std::vector<double> out;
  for (const auto& b : builds) out.push_back(b.seconds);
  return out;
}

/// Oracle, part 1: SimChar must recover exactly the font's planted pairs
/// that survive the pipeline's rules — both characters IDNA-permitted and
/// at least 10 pixels, ∆ ≤ 4 measured on the font's own glyphs.
void check_planted_pairs(const font::PaperFont& paper, const simchar::SimCharDb& mined,
                         RunResult& r) {
  const simchar::BuildOptions rules;
  std::set<std::pair<unicode::CodePoint, unicode::CodePoint>> expected;
  for (const auto& cluster : paper.clusters) {
    std::vector<unicode::CodePoint> cps{cluster.base};
    for (const auto& m : cluster.members) cps.push_back(m.cp);
    std::sort(cps.begin(), cps.end());
    cps.erase(std::unique(cps.begin(), cps.end()), cps.end());
    std::vector<std::optional<font::GlyphBitmap>> glyphs;
    for (const auto cp : cps) {
      auto g = paper.font->glyph(cp);
      if (g && (!unicode::is_idna_permitted(cp) || g->popcount() < rules.min_black_pixels)) {
        g.reset();
      }
      glyphs.push_back(std::move(g));
    }
    for (std::size_t i = 0; i < cps.size(); ++i) {
      for (std::size_t j = i + 1; j < cps.size(); ++j) {
        if (glyphs[i] && glyphs[j] && font::delta(*glyphs[i], *glyphs[j]) <= rules.threshold) {
          expected.emplace(cps[i], cps[j]);
        }
      }
    }
  }
  std::set<std::pair<unicode::CodePoint, unicode::CodePoint>> found;
  for (const auto& p : mined.pairs()) found.emplace(p.a, p.b);
  std::size_t missing = 0;
  for (const auto& p : expected) missing += found.contains(p) ? 0 : 1;
  const std::size_t extra = found.size() + missing - expected.size();
  if (missing != 0 || extra != 0) {
    r.fail("SimChar pairs differ from the planted ground truth: %zu missing, %zu extra",
           missing, extra);
  }
  r.note("oracle: %zu planted pairs, %zu mined", expected.size(), found.size());
}

/// Oracle, part 2: the artifact reloads to the same flat pair and
/// canonical arrays the build produced.
void check_reload(const Databases& built, const db::DbArtifact& artifact, RunResult& r) {
  const auto a = built.simchar.flat();
  const auto loaded_simchar = artifact.simchar();
  const auto b = loaded_simchar.flat();
  const bool pairs_equal = std::equal(a.pairs.begin(), a.pairs.end(), b.pairs.begin(),
                                      b.pairs.end());
  const auto x = built.homoglyph.to_flat();
  const auto y = artifact.homoglyph().to_flat();
  const bool homoglyph_equal = x.pair_keys == y.pair_keys &&
                               x.pair_sources == y.pair_sources &&
                               x.canon_keys == y.canon_keys && x.canon_reps == y.canon_reps;
  if (!pairs_equal) r.fail("reloaded SimChar pairs differ from the built ones");
  if (!homoglyph_equal) r.fail("reloaded homoglyph pair/canonical arrays differ");
}

}  // namespace

RunResult run_db_build(const RunArgs& args, const Inputs& in) {
  RunResult r;
  // Set-up: construct the seeded paper font the build reads.
  std::vector<double> setup_s;
  std::optional<font::PaperFont> paper;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    paper.emplace(make_font(args.seed));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto& font = *paper->font;
  const auto path = args.work_dir + "/built-artifact.db";

  // One discarded build lets thread pools and the allocator settle.
  (void)one_build(font, in.references, path, nullptr, nullptr);

  std::optional<Databases> last;
  Tracer tracer;
  std::vector<Build> untraced;
  std::vector<Build> traced;
  CpuTimes cpu0{};
  CpuTimes cpu1{};
  if (!args.trace) {
    cpu0 = cpu_times();
    untraced = builds_for(args.seconds, font, in.references, path, &last, nullptr);
    cpu1 = cpu_times();
  } else {
    untraced = builds_for(args.seconds * 0.45, font, in.references, path, nullptr, nullptr);
    cpu0 = cpu_times();
    traced = builds_for(args.seconds * 0.45, font, in.references, path, &last, &tracer);
    cpu1 = cpu_times();
  }
  const auto& measured = args.trace ? traced : untraced;
  r.attempted = untraced.size() + traced.size();
  for (const auto* set : {&untraced, &traced}) {
    for (const auto& b : *set) {
      if (b.times.stats.pairs_after_sparse != last->simchar.pair_count()) {
        ++r.failed;
        r.fail("build produced %zu pairs, the checked build %zu",
               b.times.stats.pairs_after_sparse, last->simchar.pair_count());
      }
    }
  }

  // Oracles, then the reload timings the traced run reports.
  check_planted_pairs(*paper, last->simchar, r);
  std::vector<double> load_s;
  std::vector<double> init_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const auto artifact = std::make_shared<const db::DbArtifact>(db::DbArtifact::load(path));
    const auto t1 = Clock::now();
    const auto engine = detect::Engine::from_db_artifact(artifact);
    load_s.push_back(seconds_between(t0, t1));
    init_s.push_back(seconds_between(t1, Clock::now()));
    if (i == 0) check_reload(*last, *artifact, r);
  }
  const auto bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);

  const auto glyphs = static_cast<double>(measured.back().times.stats.glyphs_rendered);
  std::vector<double> rates;
  for (const auto& b : measured) rates.push_back(glyphs / b.seconds);
  const auto secs = build_seconds(measured);
  r.note("build_s = %.4f (median of %zu builds over %.0f glyphs, %zu pairs, %.0f bytes), "
         "slowest %.4f",
         median(secs), measured.size(), glyphs, last->simchar.pair_count(), bytes,
         max_of(secs));

  if (!args.trace) {
    r.metric("throughput_per_s", median(rates), "1/s");
    r.metric("latency_p50_ms", median(secs) * 1e3, "ms");
    r.metric("setup_s", median(setup_s), "s");
    r.note("cpu user %.2f s, sys %.2f s; peak RSS %.1f MiB", cpu1.user - cpu0.user,
           cpu1.sys - cpu0.sys, peak_rss_mib());
    return r;
  }

  // Program-reported stage split (BuildStats), summed over traced builds.
  double render_s = 0.0;
  double compare_s = 0.0;
  double sparse_s = 0.0;
  double evals = 0.0;
  double found = 0.0;
  double panel_glyphs = 0.0;
  for (const auto& b : traced) {
    render_s += b.times.stats.render_seconds;
    compare_s += b.times.stats.compare_seconds;
    sparse_s += b.times.stats.sparse_seconds;
    evals += static_cast<double>(b.times.stats.pairs_compared);
    found += static_cast<double>(b.times.stats.pairs_found);
    panel_glyphs += static_cast<double>(b.times.panel_glyphs);
  }
  const double n = static_cast<double>(traced.size());
  r.metric("db.load_s", median(load_s), "s");
  r.metric("detect.engine_init_s", median(init_s), "s");
  r.metric("proc.cpu_user_s", cpu1.user - cpu0.user, "s");
  r.metric("proc.cpu_sys_s", cpu1.sys - cpu0.sys, "s");
  r.metric("proc.rss_peak_mib", peak_rss_mib(), "MiB");
  r.metric("trace.overhead_pct",
           (median(secs) - median(build_seconds(untraced))) /
               median(build_seconds(untraced)) * 100.0,
           "%");
  r.metric("db.artifact_bytes", bytes, "B");
  r.metric("font.render_glyphs_per_s", n * glyphs / render_s, "1/s");
  r.metric("simchar.delta_evals_per_s", evals / compare_s, "1/s");
  r.metric("simchar.delta_evals", evals / n, "count");
  r.metric("simchar.pair_yield_ppm", found / evals * 1e6, "ppm");
  r.metric("simchar.sparse_pct", sparse_s / tracer.self_seconds("simchar.build") * 100.0,
           "%");
  r.metric("simchar.panel_glyphs_per_s", panel_glyphs / tracer.self_seconds("simchar.panel"),
           "1/s");
  r.metric("homoglyph.pairs_per_s",
           n * static_cast<double>(last->homoglyph.pair_count()) /
               tracer.self_seconds("homoglyph.build"),
           "1/s");
  r.metric("detect.refs_indexed_per_s",
           n * static_cast<double>(in.references.size()) /
               tracer.self_seconds("detect.ref_index"),
           "1/s");
  r.metric("db.write_mib_per_s", n * bytes / (1 << 20) / tracer.self_seconds("db.write"),
           "MiB/s");
  tracer.write(args.work_dir + "/spans-db_build.jsonl");
  return r;
}

}  // namespace shambench
