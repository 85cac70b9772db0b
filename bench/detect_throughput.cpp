// Section 4.2: detection throughput. The paper matched the Alexa top-10K
// references against 141 M .com domains (955 K IDNs) in 743.6 s — 0.07 s
// per reference domain, "sufficiently fast to block a suspicious, newly
// found IDN homograph attack in real time". This bench sweeps reference-
// and IDN-list sizes and reports per-reference cost for both Algorithm 1
// as printed (serial, the oracle) and the skeleton-index engine, then
// sweeps the sharded skeleton scan over 1/2/4/8 threads against the
// serial baseline and records the results in BENCH_detect.json.
//
// `detect_throughput --smoke` runs a seconds-scale correctness pass
// instead (tiny workload, both strategies at every thread count checked
// for byte-identical output) — registered as the `perf_smoke` ctest label
// so engine races surface in tier-1 (and under -DSHAM_SANITIZE=thread).
#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "detect/detector.hpp"
#include "detect/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace sham;

/// Small self-contained workload (no font build): explicit SimChar pairs,
/// random references, IDNs derived from references by homoglyph and junk
/// substitutions so both matches and rejections are exercised.
struct SmokeWorkload {
  std::vector<std::string> refs;
  std::vector<detect::IdnEntry> idns;
};

SmokeWorkload make_smoke_workload(std::size_t ref_count, std::size_t idn_count) {
  SmokeWorkload w;
  util::Rng rng{20260805};
  for (std::size_t i = 0; i < ref_count; ++i) {
    std::string name;
    const std::size_t n = 3 + rng.below(10);
    for (std::size_t j = 0; j < n; ++j) name += static_cast<char>('a' + rng.below(26));
    w.refs.push_back(name);
  }
  const unicode::CodePoint subs[] = {0x043E, 0x0585, 0x00E9, 0x0430, 0x0131, 'x'};
  for (std::size_t i = 0; i < idn_count; ++i) {
    const auto& ref = w.refs[rng.below(w.refs.size())];
    unicode::U32String label;
    for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
    const std::size_t muts = 1 + rng.below(2);
    for (std::size_t m = 0; m < muts; ++m) {
      label[rng.below(label.size())] = subs[rng.below(std::size(subs))];
    }
    w.idns.push_back({"", label});  // ACE form unused by detection
  }
  return w;
}

int run_smoke() {
  simchar::SimCharDb sim{{
      {'o', 0x043E, 0},
      {'o', 0x0585, 2},
      {'e', 0x00E9, 3},
      {'a', 0x0430, 1},
      {'i', 0x0131, 2},
  }};
  homoglyph::DbConfig db_config;
  db_config.use_uc = false;
  const homoglyph::HomoglyphDb db{sim, unicode::ConfusablesDb::embedded(), db_config};
  const auto w = make_smoke_workload(300, 3000);

  const detect::Engine serial{db, {.strategy = detect::Strategy::kSerial}};
  const auto baseline = serial.detect({.references = w.refs, .idns = w.idns});
  std::printf("smoke: %zu refs x %zu IDNs, %zu matches (serial baseline)\n",
              w.refs.size(), w.idns.size(), baseline.matches.size());
  if (baseline.matches.empty()) {
    std::printf("smoke: FAIL — workload produced no matches\n");
    return 1;
  }

  // Skeleton probes hash buckets instead of every same-length pair, so its
  // candidate counter legitimately differs from the serial baseline; the
  // match list must still be byte-identical, every candidate accounted for
  // as either a match or a verification rejection, and the counters
  // independent of the shard count.
  bool ok = true;
  std::optional<detect::DetectionStats> single;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const detect::Engine engine{db, {.threads = threads}};
    const auto r = engine.detect({.references = w.refs, .idns = w.idns});
    if (!single) single = r.stats;
    const bool same =
        r.matches == baseline.matches &&
        r.stats.skeleton_rejected == r.stats.skeleton_candidates - r.matches.size() &&
        r.stats.skeleton_candidates == single->skeleton_candidates &&
        r.stats.char_comparisons == single->char_comparisons;
    std::printf("  skeleton x%-14zu %zu matches, %zu shard(s), %.0f%% rejected  [%s]\n",
                threads, r.matches.size(), r.stats.shards_used,
                r.stats.skeleton_rejection_rate() * 100.0, same ? "OK" : "MISMATCH");
    ok = ok && same;
  }
  // --- Cache-state equivalence -----------------------------------------
  // A cached engine must stay byte-identical to a freshly built serial
  // engine in every cache state: under the inverted (reference-bucketed)
  // join, warm (whole-response memo), under the forward join's cold build,
  // and after an in-place database update (incremental index patch). The
  // engine picks the join itself; the shape (300 refs x 3000 IDNs) and the
  // call order below reach each state. The serial baseline is rebuilt from
  // the *current* database each time, so it tracks the update too.
  homoglyph::HomoglyphDb mutable_db{sim, unicode::ConfusablesDb::embedded(),
                                    db_config};
  const detect::Engine cached{mutable_db, {.threads = 1}};
  std::vector<std::string> rotated{w.refs};
  std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
  const auto serial_fresh = [&](const std::vector<std::string>& refs) {
    const detect::Engine pure{mutable_db, {.threads = 1, .cache = false}};
    return pure.detect(
        {.references = refs, .idns = w.idns, .strategy = detect::Strategy::kSerial});
  };
  const auto cache_check = [&](const char* what, const std::vector<std::string>& refs,
                               const detect::DetectResponse& r, bool state_ok) {
    const bool same = r.matches == serial_fresh(refs).matches && state_ok;
    std::printf("  cache: %-20s %zu matches  [%s]\n", what, r.matches.size(),
                same ? "OK" : "MISMATCH");
    ok = ok && same;
  };
  const auto query = [&](const std::vector<std::string>& refs) {
    return cached.detect({.references = refs, .idns = w.idns});
  };
  // refs x 4 <= IDNs: the first sight of the IDN set indexes the references.
  const auto inverted = query(w.refs);
  cache_check("inverted join", w.refs, inverted,
              inverted.stats.inverted_join && inverted.stats.index_cache_rebuilds == 1);
  const auto warm = query(w.refs);
  cache_check("warm (memo)", w.refs, warm,
              warm.stats.result_cache_hits == 1 &&
                  warm.stats.skeleton_build_seconds == 0.0);
  // Other references against the same, now stable, IDN set: the forward
  // join builds the IDN index. Rotating the references only renumbers
  // them, so the symmetric hash join sees the inverted call's candidates.
  const auto cold = query(rotated);
  cache_check("cold (forward)", rotated, cold,
              !cold.stats.inverted_join && cold.stats.index_cache_rebuilds == 1 &&
                  cold.stats.skeleton_candidates == inverted.stats.skeleton_candidates);
  const simchar::HomoglyphPair extra[] = {{'k', 'x', 1}};
  mutable_db.apply_update(extra);
  const auto updated = query(w.refs);
  cache_check("post-update (patched)", w.refs, updated,
              updated.stats.index_cache_updates == 1 &&
                  updated.stats.index_cache_rebuilds == 0);

  std::printf("smoke: %s\n",
              ok ? "both strategies and all cache states byte-identical" : "FAILED");
  return ok ? 0 : 1;
}

double best_of(int reps, const std::function<double()>& run) {
  double best = run();
  for (int i = 1; i < reps; ++i) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  using namespace sham;
  bench::header("Section 4.2: homograph-detection throughput");
  const auto& env = bench::standard_env();
  const auto& ctx = bench::standard_wild();

  // Cache-free engines so every row pays full cost (measurement, not
  // reuse); the skeleton rows run on one thread, like the serial ones.
  const detect::Engine serial_engine{
      env.db_union, {.strategy = detect::Strategy::kSerial, .cache = false}};
  const detect::Engine skeleton_engine{
      env.db_union,
      {.strategy = detect::Strategy::kSkeleton, .threads = 1, .cache = false}};

  util::TextTable t{{"refs", "IDNs", "variant", "seconds", "s/ref", "matches"},
                    {util::Align::kRight, util::Align::kRight, util::Align::kLeft,
                     util::Align::kRight, util::Align::kRight, util::Align::kRight}};

  double naive_full = 0.0;
  double skeleton_full = 0.0;
  for (const std::size_t ref_count : {100u, 300u, 1000u}) {
    std::span<const std::string> refs{ctx.scenario.references.data(),
                                      std::min(ref_count, ctx.scenario.references.size())};
    const auto row = [&](const char* variant, const detect::DetectResponse& r) {
      t.add_row({std::to_string(refs.size()), util::with_commas(ctx.idns.size()), variant,
                 util::fixed(r.stats.seconds, 4),
                 util::fixed(r.stats.seconds / refs.size() * 1e3, 4) + " ms",
                 util::with_commas(r.matches.size())});
    };
    const auto naive = serial_engine.detect({.references = refs, .idns = ctx.idns});
    const auto skeleton = skeleton_engine.detect({.references = refs, .idns = ctx.idns});
    row("naive", naive);
    row("skeleton", skeleton);
    if (refs.size() == 1000u) {
      naive_full = naive.stats.seconds;
      skeleton_full = skeleton.stats.seconds;
    }
  }
  // The UC-skeleton baseline (prior character-based work): fast hash
  // matching, but blind to SimChar pairs and unable to pinpoint diffs.
  {
    detect::DetectionStats skel_stats;
    const auto skel = detect::detect_by_skeleton(*env.uc, ctx.scenario.references,
                                                 ctx.idns, &skel_stats);
    t.add_row({std::to_string(ctx.scenario.references.size()),
               util::with_commas(ctx.idns.size()), "UC-skeleton baseline",
               util::fixed(skel_stats.seconds, 4),
               util::fixed(skel_stats.seconds / ctx.scenario.references.size() * 1e3, 4) +
                   " ms",
               util::with_commas(skel.size())});
  }
  std::printf("%s\n", t.str().c_str());

  // --- Engine thread-count sweep -------------------------------------
  // Serial baseline = Algorithm 1 as printed on one thread; the sweep
  // shards the skeleton scan over 1/2/4/8 workers. Output is checked
  // byte-identical against the baseline each time.
  const std::span<const std::string> refs{ctx.scenario.references};
  const auto baseline = serial_engine.detect({.references = refs, .idns = ctx.idns});
  const int reps = 3;
  const double serial_seconds = best_of(reps, [&] {
    return serial_engine.detect({.references = refs, .idns = ctx.idns}).stats.seconds;
  });

  util::TextTable sweep{{"threads", "shards", "seconds", "vs serial", "vs 1 thread",
                         "identical"},
                        {util::Align::kRight, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight, util::Align::kLeft}};
  const std::size_t cores = std::max<unsigned>(1, std::thread::hardware_concurrency());
  double speedup4 = 0.0;
  double one_thread_seconds = 0.0;
  bool all_identical = true;
  std::string json_rows;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    // Caching off so every best_of rep pays the full build + scan cost
    // (the cached shape is measured separately below).
    const detect::Engine engine{env.db_union, {.threads = threads, .cache = false}};
    detect::DetectionStats stats;
    bool identical = true;
    const double seconds = best_of(reps, [&] {
      const auto r = engine.detect({.references = refs, .idns = ctx.idns});
      identical = identical && r.matches == baseline.matches;
      stats = r.stats;
      return r.stats.seconds;
    });
    all_identical = all_identical && identical;
    if (threads == 1) one_thread_seconds = seconds;
    const double speedup = serial_seconds / seconds;
    const double scaling = one_thread_seconds / seconds;
    if (threads == 4) speedup4 = speedup;
    sweep.add_row({std::to_string(threads), std::to_string(stats.shards_used),
                   util::fixed(seconds, 4), util::fixed(speedup, 2) + "x",
                   util::fixed(scaling, 2) + "x", identical ? "yes" : "NO"});
    char row[320];
    std::snprintf(row, sizeof row,
                  "    {\"threads\": %zu, \"shards\": %zu, \"seconds\": %.6f, "
                  "\"speedup\": %.3f, \"speedup_vs_1_thread\": %.3f, "
                  "\"skeleton_build_seconds\": %.6f, "
                  "\"match_seconds\": %.6f, \"merge_seconds\": %.6f, "
                  "\"identical_to_serial\": %s}%s\n",
                  threads, stats.shards_used, seconds, speedup, scaling,
                  stats.skeleton_build_seconds, stats.match_seconds, stats.merge_seconds,
                  identical ? "true" : "false", threads == 8u ? "" : ",");
    json_rows += row;
  }
  std::printf("skeleton thread sweep (%zu refs x %zu IDNs, serial baseline %.4fs, "
              "%zu core(s) available):\n%s\n",
              refs.size(), ctx.idns.size(), serial_seconds, cores, sweep.str().c_str());

  // --- Strategy comparison: exact work done per strategy ---------------
  // `candidates` counts label pairs that reached the exact per-character
  // verifier; `char cmps` counts the code points it actually compared.
  // The skeleton index narrows candidates to same-hash buckets, so its
  // comparison count is the headline sub-linearity number.
  util::TextTable strat{{"strategy", "seconds", "candidates", "char cmps",
                         "vs serial", "rejected", "matches"},
                        {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight}};
  detect::DetectionStats serial_strat_stats;
  detect::DetectionStats skeleton_strat_stats;
  bool skeleton_identical = true;
  std::string strategy_json_rows;
  for (const auto strategy : {detect::Strategy::kSerial, detect::Strategy::kSkeleton}) {
    detect::DetectionStats stats;
    bool identical = true;
    const double seconds = best_of(reps, [&] {
      const auto r = skeleton_engine.detect(
          {.references = refs, .idns = ctx.idns, .strategy = strategy});
      identical = identical && r.matches == baseline.matches;
      stats = r.stats;
      return r.stats.seconds;
    });
    if (strategy == detect::Strategy::kSerial) serial_strat_stats = stats;
    if (strategy == detect::Strategy::kSkeleton) {
      skeleton_strat_stats = stats;
      skeleton_identical = identical;
    }
    const double ratio =
        stats.char_comparisons == 0
            ? 0.0
            : static_cast<double>(serial_strat_stats.char_comparisons) /
                  static_cast<double>(stats.char_comparisons);
    strat.add_row({std::string{detect::strategy_name(strategy)}, util::fixed(seconds, 4),
                   util::with_commas(stats.length_bucket_hits),
                   util::with_commas(stats.char_comparisons),
                   strategy == detect::Strategy::kSerial ? std::string{"-"}
                                                         : util::fixed(ratio, 1) + "x",
                   util::with_commas(stats.skeleton_rejected),
                   util::with_commas(baseline.matches.size())});
    char row[320];
    std::snprintf(row, sizeof row,
                  "    {\"strategy\": \"%s\", \"seconds\": %.6f, "
                  "\"candidates\": %llu, \"char_comparisons\": %llu, "
                  "\"skeleton_build_seconds\": %.6f, \"skeleton_buckets\": %zu, "
                  "\"rejection_rate\": %.4f, \"identical_to_serial\": %s}%s\n",
                  detect::strategy_name(strategy).data(), seconds,
                  static_cast<unsigned long long>(stats.length_bucket_hits),
                  static_cast<unsigned long long>(stats.char_comparisons),
                  stats.skeleton_build_seconds, stats.skeleton_buckets,
                  stats.skeleton_rejection_rate(), identical ? "true" : "false",
                  strategy == detect::Strategy::kSkeleton ? "" : ",");
    strategy_json_rows += row;
  }
  const double comparison_ratio =
      skeleton_strat_stats.char_comparisons == 0
          ? 0.0
          : static_cast<double>(serial_strat_stats.char_comparisons) /
                static_cast<double>(skeleton_strat_stats.char_comparisons);
  std::printf("strategy comparison (%zu refs x %zu IDNs, single thread):\n%s\n",
              refs.size(), ctx.idns.size(), strat.str().c_str());
  std::printf("skeleton index: %zu buckets built in %.4f ms, %.1fx fewer exact "
              "char comparisons than serial, %.1f%% of candidates rejected by "
              "verification\n\n",
              skeleton_strat_stats.skeleton_buckets,
              skeleton_strat_stats.skeleton_build_seconds * 1e3, comparison_ratio,
              skeleton_strat_stats.skeleton_rejection_rate() * 100.0);

  // --- Repeated-query benchmark: Engine-resident index caching ---------
  // The production shape Section 4.2 implies: one engine, one zone
  // snapshot, many queries. cold = first kSkeleton call on a caching
  // engine (index build + scan); warm = the same query again (served by
  // the whole-response memo, no build, no scan); warm_index = same IDN
  // set but a rotated reference list (memo miss, cached skeleton index
  // reused, scan runs).
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double warm_index_seconds = 0.0;
  bool warm_hit = false;
  bool warm_index_hit = false;
  bool warm_identical = false;
  {
    const detect::Engine caching{env.db_union, {.threads = 1}};
    const auto cold = caching.detect({.references = refs, .idns = ctx.idns,
                                      .strategy = detect::Strategy::kSkeleton});
    cold_seconds = cold.stats.seconds;
    const auto warm = caching.detect({.references = refs, .idns = ctx.idns,
                                      .strategy = detect::Strategy::kSkeleton});
    warm_seconds = warm.stats.seconds;
    warm_hit = warm.stats.result_cache_hits == 1 &&
               warm.stats.skeleton_build_seconds == 0.0;
    std::vector<std::string> rotated{refs.begin(), refs.end()};
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    const auto warm_index =
        caching.detect({.references = rotated, .idns = ctx.idns,
                        .strategy = detect::Strategy::kSkeleton});
    warm_index_seconds = warm_index.stats.seconds;
    warm_index_hit = warm_index.stats.index_cache_hits == 1 &&
                     warm_index.stats.skeleton_build_seconds == 0.0;
    warm_identical = warm.matches == cold.matches && cold.matches == baseline.matches;
  }
  const double warm_speedup = cold_seconds / std::max(warm_seconds, 1e-9);
  std::printf("repeated query (%zu refs x %zu IDNs, skeleton, caching engine):\n"
              "  cold        %.4fs (index built)\n"
              "  warm        %.6fs (%.0fx, result memo%s)\n"
              "  warm index  %.4fs (new refs, cached index%s)\n\n",
              refs.size(), ctx.idns.size(), cold_seconds, warm_seconds, warm_speedup,
              warm_hit ? "" : " MISSED", warm_index_seconds,
              warm_index_hit ? "" : " MISSED");

  if (std::FILE* f = std::fopen("BENCH_detect.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"detect_throughput\",\n"
                 "  \"hardware_concurrency\": %zu,\n"
                 "  \"references\": %zu,\n"
                 "  \"idns\": %zu,\n"
                 "  \"naive_seconds_1000refs\": %.6f,\n"
                 "  \"skeleton_seconds_1000refs\": %.6f,\n"
                 "  \"serial_baseline_seconds\": %.6f,\n"
                 "  \"sweep\": [\n%s  ],\n"
                 "  \"speedup_at_4_threads\": %.3f,\n"
                 "  \"all_outputs_identical_to_serial\": %s,\n"
                 "  \"strategies\": [\n%s  ],\n"
                 "  \"skeleton_vs_serial_comparison_ratio\": %.3f,\n"
                 "  \"skeleton_identical_to_serial\": %s,\n"
                 "  \"repeated_query\": {\n"
                 "    \"cold_seconds\": %.6f,\n"
                 "    \"warm_seconds\": %.6f,\n"
                 "    \"warm_speedup\": %.1f,\n"
                 "    \"warm_result_cache_hit\": %s,\n"
                 "    \"warm_index_seconds\": %.6f,\n"
                 "    \"warm_index_cache_hit\": %s,\n"
                 "    \"warm_identical_to_cold\": %s\n"
                 "  },\n"
                 "  \"parallel_speedup_criterion\": \"%s\"\n"
                 "}\n",
                 cores, refs.size(), ctx.idns.size(), naive_full, skeleton_full,
                 serial_seconds, json_rows.c_str(), speedup4,
                 all_identical ? "true" : "false", strategy_json_rows.c_str(),
                 comparison_ratio, skeleton_identical ? "true" : "false",
                 cold_seconds, warm_seconds, warm_speedup,
                 warm_hit ? "true" : "false", warm_index_seconds,
                 warm_index_hit ? "true" : "false", warm_identical ? "true" : "false",
                 cores >= 2
                     ? (speedup4 >= (cores >= 4 ? 2.0 : 1.3) ? "met" : "FAILED")
                     : "hardware_skipped");
    std::fclose(f);
    std::printf("wrote BENCH_detect.json\n");
  }

  const double per_ref = naive_full / 1000.0;
  std::printf("paper: 10,000 refs x 955K IDNs in 743.6 s = 0.07 s/ref\n");
  std::printf("ours:  per-ref cost %.4f ms over %zu IDNs; scaled to 955K IDNs "
              "≈ %.3f s/ref\n",
              per_ref * 1e3, ctx.idns.size(),
              per_ref * 955512.0 / static_cast<double>(ctx.idns.size()));

  bench::shape("per-reference cost is real-time (well under 0.07 s/ref scaled)",
               per_ref * 955512.0 / static_cast<double>(ctx.idns.size()) < 0.07);
  bench::shape("skeleton engine is no slower than the printed Algorithm 1",
               skeleton_full <= naive_full * 1.2);
  bench::shape("sharded skeleton output byte-identical to serial at every thread count",
               all_identical);
  bench::shape("skeleton output byte-identical to serial", skeleton_identical);
  bench::shape("skeleton does >= 5x fewer exact char comparisons than serial",
               comparison_ratio >= 5.0);
  bench::shape("warm-cache detect() skips index construction (hit, build time 0)",
               warm_hit && warm_index_hit);
  bench::shape("repeated query >= 5x faster on the second call", warm_speedup >= 5.0);
  bench::shape("warm response byte-identical to cold and serial", warm_identical);
  // Any multi-core host must show the 4-thread engine ahead of serial;
  // only a single-core host is reported hardware_skipped. A host with 4+
  // cores must hit the full 2x bar; a 2-3 core box gets a 1.3x floor.
  if (cores >= 4) {
    bench::shape("sharded skeleton engine >= 2x over serial at 4 threads",
                 speedup4 >= 2.0);
  } else if (cores >= 2) {
    bench::shape("sharded skeleton engine >= 1.3x over serial at 4 threads",
                 speedup4 >= 1.3);
  } else {
    std::printf("  shape: sharded engine speedup at 4 threads           [SKIPPED:"
                " only %zu core(s) available]\n", cores);
  }
  return 0;
}
