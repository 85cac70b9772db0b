// DB-artifact cold start: the preprocessing output (SimChar + homoglyph
// DB + reference skeleton index) serialized once and then memory-mapped
// with zero parsing. This bench measures what the artifact buys at
// process start against rebuilding everything from the font:
//
//   build path   render repertoire -> mine pairs -> compose HomoglyphDb
//                -> build skeleton index -> first detect();
//   mmap path    DbArtifact::load() -> Engine::from_db_artifact()
//                -> first detect()  (indexes adopted in place).
//
// Reported in BENCH_db.json: cold-start speedup (criterion: >= 10x),
// artifact size, resident-set growth of the mmap path, byte-identity of
// the two paths' match lists, and an N-process concurrent-load check
// (every process maps the same file; the page cache shares the physical
// pages). `db_load --smoke` is the seconds-scale correctness pass —
// registered as the `perf_smoke`/`db_smoke` ctest labels — asserting
// round-trip byte-identity under both strategies plus
// corrupt-artifact rejection.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/shamfinder.hpp"
#include "db/artifact.hpp"
#include "detect/engine.hpp"
#include "detect/skeleton_index.hpp"
#include "font/paper_font.hpp"
#include "util/rng.hpp"

namespace {

using namespace sham;

/// VmRSS from /proc/self/status, in KiB (0 where unavailable).
std::size_t resident_kib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoul(line.substr(6));
    }
  }
  return 0;
}

/// References plus IDNs mutated from them through the database's own
/// homoglyph map, so the workload contains both matches and rejections.
struct Workload {
  std::vector<std::string> refs;
  std::vector<detect::IdnEntry> idns;
};

Workload make_workload(const homoglyph::HomoglyphDb& db, std::size_t ref_count,
                       std::size_t idn_count, std::uint64_t seed) {
  Workload w;
  util::Rng rng{seed};
  for (std::size_t i = 0; i < ref_count; ++i) {
    std::string name;
    const std::size_t n = 4 + rng.below(9);
    for (std::size_t j = 0; j < n; ++j) name += static_cast<char>('a' + rng.below(26));
    w.refs.push_back(name);
  }
  for (std::size_t i = 0; i < idn_count; ++i) {
    const auto& ref = w.refs[rng.below(w.refs.size())];
    unicode::U32String label;
    for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
    const std::size_t muts = 1 + rng.below(2);
    for (std::size_t m = 0; m < muts; ++m) {
      const std::size_t at = rng.below(label.size());
      const auto subs = db.homoglyphs_of(label[at]);
      label[at] = subs.empty() ? 'x' : subs[rng.below(subs.size())];
    }
    w.idns.push_back({"", label});
  }
  return w;
}

/// Serialize the finder's databases plus a reference-side skeleton index.
void write_artifact(const std::string& path, const core::ShamFinder& finder,
                    std::span<const std::string> refs) {
  db::WriteRequest request;
  request.simchar = &finder.simchar();
  request.homoglyph = &finder.db();
  db::SkeletonFlat skeleton;
  if (!refs.empty()) {
    const detect::SkeletonIndex index{finder.db(), refs};
    skeleton = index.to_flat();
    request.references = refs;
    request.reference_fingerprint = detect::label_set_fingerprint(refs);
    request.skeleton = &skeleton;
  }
  db::write_db_file(path, request);
}

bool corruption_rejected(const std::string& path, std::size_t flip_offset) {
  std::vector<char> bytes;
  {
    std::ifstream in{path, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>{in}, {});
  }
  if (flip_offset >= bytes.size()) return true;
  bytes[flip_offset] ^= 0x40;
  const std::string corrupt_path = path + ".corrupt";
  {
    std::ofstream out{corrupt_path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  bool rejected = false;
  try {
    const auto artifact = db::DbArtifact::load(corrupt_path);
    // A flip in an alignment gap is invisible to the checksums; results
    // must still be sane, which the round-trip tests assert. Here a
    // successful load after a flip only counts as "not rejected".
    (void)artifact;
  } catch (const std::runtime_error&) {
    rejected = true;
  }
  std::remove(corrupt_path.c_str());
  return rejected;
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
  const auto w = make_workload(db, 120, 1200, 20260808);

  const std::string path = "db_smoke.artifact";
  {
    db::WriteRequest request;
    request.simchar = &sim;
    request.homoglyph = &db;
    const detect::SkeletonIndex index{db, std::span<const std::string>{w.refs}, {}};
    const auto skeleton = index.to_flat();
    request.references = w.refs;
    request.reference_fingerprint =
        detect::label_set_fingerprint(std::span<const std::string>{w.refs});
    request.skeleton = &skeleton;
    db::write_db_file(path, request);
  }

  const detect::Engine in_process{db};
  const auto baseline = in_process.detect(
      {.references = w.refs, .idns = w.idns, .strategy = detect::Strategy::kSerial});
  std::printf("smoke: %zu refs x %zu IDNs, %zu matches (serial in-process)\n",
              w.refs.size(), w.idns.size(), baseline.matches.size());
  bool ok = !baseline.matches.empty();
  if (!ok) std::printf("smoke: FAIL — workload produced no matches\n");

  const auto mapped = detect::Engine::from_db_file(path);
  for (const auto strategy : {detect::Strategy::kSerial, detect::Strategy::kSkeleton}) {
    const auto r = mapped.detect(
        {.references = w.refs, .idns = w.idns, .strategy = strategy});
    const bool same = r.matches == baseline.matches;
    std::printf("  mmap %-10s %zu matches  [%s]\n",
                std::string{detect::strategy_name(strategy)}.c_str(),
                r.matches.size(), same ? "OK" : "MISMATCH");
    ok = ok && same;
  }
  // The artifact's skeleton index must be adopted, not rebuilt: the first
  // kSkeleton query against the artifact's own reference list is a cache
  // hit with zero skeleton-build time.
  {
    const auto fresh = detect::Engine::from_db_file(path);
    const auto r = fresh.detect({.references = fresh.artifact()->references(),
                                 .idns = w.idns,
                                 .strategy = detect::Strategy::kSkeleton});
    const bool seeded = r.stats.index_cache_hits == 1 &&
                        r.stats.skeleton_build_seconds == 0.0 &&
                        r.matches == baseline.matches;
    std::printf("  pre-seeded skeleton index on first query  [%s]\n",
                seeded ? "OK" : "MISS");
    ok = ok && seeded;
  }
  // Corruption must be rejected with a diagnostic, never UB: flip bytes in
  // the header, the section table, and a payload; truncate the file.
  {
    std::size_t rejected = 0;
    const std::size_t offsets[] = {0, 8, 70, 200, 4096};
    for (const auto off : offsets) rejected += corruption_rejected(path, off);
    const bool all = rejected == std::size(offsets);
    std::printf("  corrupt artifacts rejected: %zu/%zu  [%s]\n", rejected,
                std::size(offsets), all ? "OK" : "MISS");
    ok = ok && all;
    std::vector<char> bytes;
    {
      std::ifstream in{path, std::ios::binary};
      bytes.assign(std::istreambuf_iterator<char>{in}, {});
    }
    bool truncated_rejected = true;
    for (const std::size_t keep : {std::size_t{0}, std::size_t{13},
                                   std::size_t{64}, bytes.size() / 2,
                                   bytes.size() - 1}) {
      const std::string trunc_path = path + ".trunc";
      {
        std::ofstream out{trunc_path, std::ios::binary | std::ios::trunc};
        out.write(bytes.data(), static_cast<std::streamsize>(keep));
      }
      try {
        (void)db::DbArtifact::load(trunc_path);
        truncated_rejected = false;
      } catch (const std::runtime_error&) {
      }
      std::remove(trunc_path.c_str());
    }
    std::printf("  truncated artifacts rejected  [%s]\n",
                truncated_rejected ? "OK" : "MISS");
    ok = ok && truncated_rejected;
  }
  std::remove(path.c_str());
  std::printf("smoke: %s\n", ok ? "artifact round-trip byte-identical" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  bench::header("DB artifact: zero-parse cold start vs in-process build");

  // Everything below runs against the synthetic paper font so the numbers
  // are machine-independent in shape. One untimed build produces the
  // workload and the artifact; the timed comparison then replays both
  // cold-start paths from scratch.
  const auto font = font::make_paper_font({}).font;
  const auto setup = core::ShamFinder::build_from_font(*font);
  const auto workload = make_workload(setup.db(), 500, 20'000, 20260808);

  const std::string path = "BENCH_db.artifact";
  write_artifact(path, setup, workload.refs);
  const auto probe = db::DbArtifact::load(path);
  const std::size_t artifact_bytes = probe.file_size();
  std::printf("artifact: %zu bytes (%zu refs embedded, skeleton %s)\n",
              artifact_bytes, probe.references().size(),
              probe.has_skeleton() ? "yes" : "no");

  // Cold start is time-to-first-verdict: everything a fresh process pays
  // before it can answer its first query (the CLI `check` shape — a
  // handful of IDNs against the full reference list). The big workload is
  // then compared untimed to prove the two paths byte-identical at scale.
  const std::span<const detect::IdnEntry> first_query{workload.idns.data(), 64};

  // --- Timed path 1: full in-process build + first detect ---------------
  util::Stopwatch build_watch;
  const auto built = core::ShamFinder::build_from_font(*font);
  detect::DetectionStats build_stats;
  const auto first_built =
      built.find_homographs(workload.refs, first_query, &build_stats);
  const double build_seconds = build_watch.seconds();

  // --- Timed path 2: mmap the artifact + first detect -------------------
  const std::size_t rss_before_kib = resident_kib();
  util::Stopwatch load_watch;
  const auto engine = detect::Engine::from_db_file(path);
  const auto first_mapped = engine.detect({.references = workload.refs,
                                           .idns = first_query});
  const double load_seconds = load_watch.seconds();
  const std::size_t rss_after_kib = resident_kib();
  const std::size_t rss_delta_kib =
      rss_after_kib > rss_before_kib ? rss_after_kib - rss_before_kib : 0;

  // --- Untimed: the full workload must agree byte-for-byte --------------
  const auto built_matches = built.find_homographs(workload.refs, workload.idns);
  const auto mapped_full = engine.detect({.references = workload.refs,
                                          .idns = workload.idns});
  const bool identical = first_mapped.matches == first_built &&
                         mapped_full.matches == built_matches;
  const double speedup = build_seconds / std::max(load_seconds, 1e-9);
  std::printf("in-process build + first detect : %.4f s (%zu matches)\n",
              build_seconds, first_built.size());
  std::printf("mmap load + first detect        : %.4f s (%zu matches)  -> %.1fx\n",
              load_seconds, first_mapped.matches.size(), speedup);
  std::printf("full workload (%zu IDNs)     : %zu matches both paths  [%s]\n",
              workload.idns.size(), built_matches.size(),
              identical ? "identical" : "MISMATCH");
  std::printf("mmap path RSS growth            : %zu KiB (artifact %zu KiB)\n",
              rss_delta_kib, artifact_bytes / 1024);

  // --- N-process concurrent load ---------------------------------------
  // Each child maps the same artifact and runs the same query; the page
  // cache backs all mappings with one set of physical pages. Children
  // exit 0 only when their match list size equals the parent's.
  const std::size_t cores =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const std::size_t procs = std::min<std::size_t>(4, cores);
  std::size_t concurrent_ok = 0;
  if (cores >= 2) {
    std::vector<pid_t> children;
    for (std::size_t i = 0; i < procs; ++i) {
      const pid_t pid = fork();
      if (pid == 0) {
        try {
          const auto child_engine = detect::Engine::from_db_file(path);
          const auto r = child_engine.detect({.references = workload.refs,
                                              .idns = workload.idns});
          _exit(r.matches == built_matches ? 0 : 1);
        } catch (...) {
          _exit(2);
        }
      }
      if (pid > 0) children.push_back(pid);
    }
    for (const pid_t pid : children) {
      int status = 0;
      waitpid(pid, &status, 0);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) ++concurrent_ok;
    }
    std::printf("concurrent load           : %zu/%zu process(es) byte-identical\n",
                concurrent_ok, procs);
  } else {
    std::printf("concurrent load           : skipped (%zu core(s))\n", cores);
  }

  // --- Corruption spot-check --------------------------------------------
  std::size_t rejected = 0;
  const std::size_t flip_offsets[] = {0, 9, 72, 512, artifact_bytes / 2,
                                      artifact_bytes - 3};
  for (const auto off : flip_offsets) rejected += corruption_rejected(path, off);
  std::printf("corrupt-artifact rejection: %zu/%zu flips rejected\n", rejected,
              std::size(flip_offsets));

  if (std::FILE* f = std::fopen("BENCH_db.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"db_load\",\n"
        "  \"hardware_concurrency\": %zu,\n"
        "  \"references\": %zu,\n"
        "  \"idns\": %zu,\n"
        "  \"artifact_bytes\": %zu,\n"
        "  \"build_seconds\": %.6f,\n"
        "  \"load_seconds\": %.6f,\n"
        "  \"cold_start_speedup\": %.1f,\n"
        "  \"matches\": %zu,\n"
        "  \"identical_to_in_process\": %s,\n"
        "  \"rss_delta_kib\": %zu,\n"
        "  \"corrupt_flips_rejected\": \"%zu/%zu\",\n"
        "  \"cold_start_criterion\": \"%s\",\n"
        "  \"concurrent_load_criterion\": \"%s\"\n"
        "}\n",
        cores, workload.refs.size(), workload.idns.size(), artifact_bytes,
        build_seconds, load_seconds, speedup, built_matches.size(),
        identical ? "true" : "false", rss_delta_kib, rejected,
        std::size(flip_offsets),
        speedup >= 10.0 && identical ? "met" : "FAILED",
        cores >= 2 ? (concurrent_ok == procs ? "met" : "FAILED")
                   : "hardware_skipped");
    std::fclose(f);
    std::printf("wrote BENCH_db.json\n");
  }
  std::remove(path.c_str());

  bench::shape("mmap cold start >= 10x faster than in-process build",
               speedup >= 10.0);
  bench::shape("mmap detect() byte-identical to in-process detect()", identical);
  bench::shape("corrupt artifacts rejected with a diagnostic",
               rejected == std::size(flip_offsets));
  if (cores >= 2) {
    bench::shape("N processes share one artifact byte-identically",
                 concurrent_ok == procs);
  } else {
    std::printf("  shape: concurrent artifact sharing                    [SKIPPED:"
                " only %zu core(s) available]\n", cores);
  }
  return 0;
}
