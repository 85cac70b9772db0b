// Paper-scale streaming measurement run over the shared mmap DB artifact
// (Sections 5-6 at registry-zone scale):
//
//   * zone streaming — Step 1+2 as one bounded-memory pass through
//     dns::ZoneStreamReader; the verdicts must be byte-identical to the
//     classic materialise-then-detect path at every batch size;
//   * RSS bound — streaming a zone must grow the resident set by a
//     fraction of what materialising the same zone costs;
//   * multi-TLD fleet — one detect::Engine per TLD, every worker mapping
//     the same build-db artifact (page-cache shared), streaming its zone
//     as steady load; per-TLD throughput and fingerprints recorded;
//   * generation-diff ingestion — daily batches of new Unicode characters
//     and new registrations folded in incrementally
//     (simchar::update_with_new_characters, HomoglyphDb, SkeletonIndex::
//     rehash_changed), proven state-identical to a full rebuild;
//   * streaming zone generation — internet::ZoneTextStream synthesizes the
//     master-file text chunk-by-chunk, byte-identical to the zone files
//     written from the materialized scenario;
//   * slice-parallel zones — each of N slice threads generates, parses,
//     extracts and detects its own part of one generated zone; verdict
//     fingerprints must be identical at 1/2/8 slices (throughput scaling
//     is recorded, and marked hardware_skipped on single-core hosts);
//   * bounded-RSS ladder — full generate-and-detect runs at 2e6 and 1e7
//     domains; the peak resident set at 1e7 must stay within a fixed
//     slack (kGenRssSlackKib) of the 2e6 run, i.e. independent of the
//     population size.
//
// Results are persisted as BENCH_scale.json. `scale_run --smoke` is the
// seconds-scale correctness pass registered as the `scale_smoke` ctest
// label.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "db/artifact.hpp"
#include "detect/engine.hpp"
#include "detect/skeleton_index.hpp"
#include "dns/zone_file.hpp"
#include "font/synthetic_font.hpp"
#include "idna/idna.hpp"
#include "internet/scenario.hpp"
#include "measure/scale_run.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace sham;

void write_zone_file(const std::string& path, const dns::Zone& zone) {
  std::ofstream out{path, std::ios::trunc};
  out << dns::serialize_zone(zone);
}

void write_artifact(const std::string& path, const simchar::SimCharDb& sim,
                    const homoglyph::HomoglyphDb& db,
                    std::span<const std::string> refs) {
  db::WriteRequest request;
  request.simchar = &sim;
  request.homoglyph = &db;
  const detect::SkeletonIndex index{db, refs};
  const auto skeleton = index.to_flat();
  request.references = refs;
  request.reference_fingerprint = detect::label_set_fingerprint(refs);
  request.skeleton = &skeleton;
  db::write_db_file(path, request);
}

/// Two font versions for the generation-diff pipeline: the new one adds a
/// near-duplicate of the 'o' cluster plus unrelated characters (the
/// test_simchar_update shape). One addition is the digit '0' — smaller
/// than every current member of the 'o' component, so folding it in moves
/// the component's canonical representative and forces the reference-side
/// skeleton index to rehash every label containing 'o'.
struct VersionedFonts {
  std::shared_ptr<font::SyntheticFont> old_font;
  std::shared_ptr<font::SyntheticFont> new_font;
  std::vector<unicode::CodePoint> added;
};

VersionedFonts make_versioned(std::uint64_t seed) {
  VersionedFonts v;
  font::SyntheticFontBuilder old_builder{seed};
  old_builder.cover_range(0x0430, 0x045F);
  old_builder.plant_cluster('o', {{0x043E, 0}, {0x0585, 2}});
  old_builder.plant_cluster('a', {{0x0251, 1}});
  v.old_font = old_builder.build();

  font::SyntheticFontBuilder new_builder{seed};
  new_builder.cover_range(0x0430, 0x045F);
  new_builder.plant_cluster('o', {{0x043E, 0}, {0x0585, 2}, {0x04E7, 3}, {0x30, 2}});
  new_builder.plant_cluster('a', {{0x0251, 1}});
  new_builder.cover_range(0x0531 + 0x30, 0x0586, 10, false);
  v.new_font = new_builder.build();

  for (const auto cp : v.new_font->coverage()) {
    if (!v.old_font->glyph(cp).has_value()) v.added.push_back(cp);
  }
  return v;
}

/// Homograph registrations of random references under `db`, as full
/// "<ace>.<tld>" names (only genuine IDNs — pure-ASCII mutations are
/// discarded).
std::vector<std::string> make_registrations(const homoglyph::HomoglyphDb& db,
                                            std::span<const std::string> refs,
                                            std::size_t count, util::Rng& rng,
                                            std::string_view tld) {
  std::vector<std::string> out;
  for (std::size_t attempts = 0; out.size() < count && attempts < count * 64;
       ++attempts) {
    const auto& ref = refs[rng.below(refs.size())];
    unicode::U32String label;
    for (const char c : ref) label.push_back(static_cast<unsigned char>(c));
    const std::size_t at = rng.below(label.size());
    const auto subs = db.homoglyphs_of(label[at]);
    if (subs.empty()) continue;
    label[at] = subs[rng.below(subs.size())];
    auto ace = idna::to_a_label(label);
    if (!ace.starts_with("xn--")) continue;
    out.push_back(std::move(ace) + "." + std::string{tld});
  }
  return out;
}

/// Run the daily generation-diff feed and report equivalence to a full
/// rebuild plus the totals folded in.
struct DiffRun {
  measure::DiffEquivalence equivalence;
  std::size_t days = 0;
  std::size_t pairs_added = 0;
  std::size_t entries_rehashed = 0;
  std::size_t idns = 0;
  std::size_t verdicts = 0;
};

DiffRun run_diff_feed(std::size_t registrations_per_day, std::uint64_t seed) {
  const auto v = make_versioned(seed);
  const std::vector<std::string> refs{"oooo", "oaoa", "aooa", "ooao", "aaoo"};
  measure::GenerationDiffPipeline pipeline{*v.old_font, refs};
  util::Rng rng{seed ^ 0x5ca1eULL};

  DiffRun run;
  const auto feed_day = [&](const font::FontSource* font,
                            std::vector<unicode::CodePoint> chars) {
    measure::DiffBatch batch;
    batch.font = font;
    batch.new_characters = std::move(chars);
    batch.new_registrations = make_registrations(
        pipeline.db(), pipeline.references(), registrations_per_day, rng, "com");
    const auto r = pipeline.apply(batch);
    ++run.days;
    run.pairs_added += r.db_update.pairs_added;
    run.entries_rehashed += r.index_entries_rehashed;
    run.idns += r.new_idns;
  };

  feed_day(nullptr, {});               // day 0: registrations only
  feed_day(v.new_font.get(), v.added); // day 1: Unicode additions land
  feed_day(nullptr, {});               // day 2+: steady registrations
  feed_day(nullptr, {});

  run.equivalence = measure::verify_against_rebuild(pipeline);
  run.verdicts = pipeline.detect(detect::Strategy::kSkeleton).verdicts.size();
  return run;
}

struct ZoneSet {
  internet::Scenario scenario;
  std::vector<measure::FleetZone> zones;  // written to disk
};

ZoneSet make_zones(const homoglyph::HomoglyphDb& db,
                   const internet::ScenarioConfig& config,
                   const std::string& prefix) {
  ZoneSet set;
  set.scenario = internet::generate_scenario(db, config);
  const std::pair<std::string, int> tlds[] = {{"com", 0}, {"net", 1}, {"org", 2}};
  for (const auto& [tld, which] : tlds) {
    const std::string path = prefix + "_" + tld + ".zone";
    write_zone_file(path, internet::scenario_to_zone(set.scenario, which, tld));
    set.zones.push_back({tld, path});
  }
  return set;
}

void remove_zone_set(const ZoneSet& set) {
  for (const auto& z : set.zones) std::remove(z.zone_path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  return {std::istreambuf_iterator<char>{in}, {}};
}

/// The streamed generator must reproduce the zone files written from the
/// materialized scenario byte-for-byte (same config, same which/TLD map
/// as make_zones).
bool genstream_identity(const homoglyph::HomoglyphDb& db,
                        const internet::ScenarioConfig& config,
                        const ZoneSet& set, bool print) {
  const std::pair<std::string, int> tlds[] = {{"com", 0}, {"net", 1}, {"org", 2}};
  bool ok = true;
  for (std::size_t i = 0; i < set.zones.size(); ++i) {
    const auto& [tld, which] = tlds[i];
    const auto streamed =
        internet::generate_zone_text(db, config, {.which = which, .tld = tld});
    const bool same = streamed == read_file(set.zones[i].zone_path);
    if (print) {
      std::printf("  genstream .%s (which=%d): %zu bytes  [%s]\n", tld.c_str(),
                  which, streamed.size(), same ? "identical" : "MISMATCH");
    }
    ok = ok && same;
  }
  return ok;
}

/// One synthetic generate-and-detect fleet run (never touches disk).
struct GenRun {
  std::size_t domains = 0;
  std::size_t shards = 1;
  std::size_t rss_before_kib = 0;
  std::size_t rss_peak_kib = 0;
  std::size_t rss_after_kib = 0;
  double seconds = 0.0;
  double domains_per_second = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t matches = 0;
  bool ok = false;
};

GenRun run_generated_fleet(const std::string& artifact,
                           internet::ScenarioConfig config, std::size_t domains,
                           std::size_t shards) {
  // Same seed/reference config as the artifact's reference list, so the
  // planted attacks target names the fleet actually detects against.
  config.total_domains = domains;
  measure::FleetOptions options;
  options.db_file = artifact;
  measure::FleetZone zone;
  zone.tld = "com";
  zone.scenario = config;
  zone.which = 2;
  options.zones = {zone};
  options.shards = shards;

  GenRun run;
  run.domains = domains;
  run.shards = shards;
  run.rss_before_kib = measure::resident_kib();
  const auto report = measure::run_fleet(options);
  run.rss_after_kib = measure::resident_kib();
  if (!report.ok() || report.zones.empty()) return run;
  const auto& z = report.zones.front();
  run.rss_peak_kib = z.rss_peak_kib;
  run.seconds = z.seconds;
  run.domains_per_second = z.domains_per_second;
  run.fingerprint = z.verdict_fingerprint;
  run.matches = z.matches;
  run.ok = true;
  return run;
}

/// Peak-RSS slack allowed between the 2e6- and 1e7-domain generated runs:
/// the pipeline's working set is a constant (generator head + one chunk
/// and one batch per slice + per-slice verdict vectors), so the ceiling
/// must not move with the population. 256 MiB absorbs allocator noise and
/// verdict accumulation without masking an O(N) regression (materializing
/// 1e7 domains would cost GiBs).
constexpr std::size_t kGenRssSlackKib = 256 * 1024;

/// Streaming vs materialized verdict identity for one zone, across batch
/// sizes and against an independent in-process engine.
bool verdict_identity(const detect::Engine& mapped, const detect::Engine& in_process,
                      std::span<const std::string> refs,
                      const measure::FleetZone& zone, bool print) {
  const measure::StreamOptions base{.tld = zone.tld, .batch_size = 512};
  const auto materialized = measure::detect_materialized(
      in_process, refs, zone.zone_path, base, detect::Strategy::kSerial);
  bool ok = true;
  for (const std::size_t batch : {std::size_t{7}, std::size_t{512},
                                  std::size_t{100'000}}) {
    const measure::StreamOptions options{.tld = zone.tld, .batch_size = batch};
    const auto streamed =
        measure::detect_sharded(mapped, refs, detect::Strategy::kSkeleton,
                                measure::zone_file_slices(zone.zone_path, 1, options), 1);
    const bool same = streamed.verdicts == materialized.verdicts &&
                      streamed.fingerprint == materialized.fingerprint;
    if (print) {
      std::printf("  .%s batch %-6zu: %zu verdicts over %zu IDNs  [%s]\n",
                  zone.tld.c_str(), batch, streamed.verdicts.size(),
                  streamed.stream.idns, same ? "OK" : "MISMATCH");
    }
    ok = ok && same;
  }
  return ok && !materialized.verdicts.empty();
}

int run_smoke() {
  measure::EnvironmentConfig env_config;
  env_config.font_scale = 0.1;
  const auto env = measure::Environment::create(env_config);

  internet::ScenarioConfig config;
  config.total_domains = 12'000;
  config.reference_count = 250;
  config.attack_scale = 0.05;
  auto set = make_zones(env.db_union, config, "scale_smoke");

  const std::string artifact = "scale_smoke.artifact";
  write_artifact(artifact, env.simchar, env.db_union, set.scenario.references);

  const auto mapped = detect::Engine::from_db_file(artifact);
  const auto& refs = mapped.artifact()->references();
  const detect::Engine in_process{env.db_union};

  std::printf("smoke: %zu domains, %zu refs, %zu zones\n",
              set.scenario.domains.size(), refs.size(), set.zones.size());
  bool ok = true;
  for (const auto& zone : set.zones) {
    ok = verdict_identity(mapped, in_process, refs, zone, true) && ok;
  }

  // Fleet over the shared artifact, each zone file cut into three slices:
  // every worker's fingerprint must equal the in-process baseline for its
  // TLD.
  measure::FleetOptions fleet_options;
  fleet_options.db_file = artifact;
  fleet_options.zones = set.zones;
  fleet_options.batch_size = 256;
  fleet_options.shards = 3;
  const auto fleet = measure::run_fleet(fleet_options);
  bool fleet_ok = fleet.ok();
  for (const auto& z : fleet.zones) {
    const measure::StreamOptions options{.tld = z.tld, .batch_size = 512};
    const auto baseline = measure::detect_materialized(
        in_process, refs,
        set.zones[static_cast<std::size_t>(&z - fleet.zones.data())].zone_path,
        options, detect::Strategy::kSerial);
    fleet_ok = fleet_ok && z.verdict_fingerprint == baseline.fingerprint;
  }
  std::printf("  fleet: %zu workers, %zu IDNs, %zu matches  [%s]\n",
              fleet.zones.size(), fleet.total_idns, fleet.total_matches,
              fleet_ok ? "OK" : "MISMATCH");
  ok = ok && fleet_ok;

  // Streamed generator byte-identical to the written zone files.
  ok = genstream_identity(env.db_union, config, set, true) && ok;

  // Generated sharded fleet: fingerprint-invariant at 1/2/4 shards.
  std::vector<GenRun> shard_runs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    shard_runs.push_back(run_generated_fleet(artifact, config, 20'000, shards));
  }
  bool shard_ok = true;
  for (const auto& r : shard_runs) {
    shard_ok = shard_ok && r.ok && r.matches > 0 &&
               r.fingerprint == shard_runs.front().fingerprint;
  }
  std::printf("  generated fleet 20k domains, shards 1/2/4: %zu matches  [%s]\n",
              shard_runs.front().matches,
              shard_ok ? "fingerprints identical" : "MISMATCH");
  ok = ok && shard_ok;

  // Generation-diff ingestion equivalent to a full rebuild.
  const auto diff = run_diff_feed(24, 515);
  std::printf(
      "  diff feed: %zu days, %zu pairs added, %zu rehashed, %zu IDNs, "
      "%zu verdicts\n",
      diff.days, diff.pairs_added, diff.entries_rehashed, diff.idns,
      diff.verdicts);
  const auto& eq = diff.equivalence;
  std::printf("  diff vs rebuild: pairs %s, canonical %s, skeleton %s, verdicts %s\n",
              eq.pairs_identical ? "OK" : "MISMATCH",
              eq.canonical_identical ? "OK" : "MISMATCH",
              eq.skeleton_identical ? "OK" : "MISMATCH",
              eq.verdicts_identical ? "OK" : "MISMATCH");
  ok = ok && eq.ok() && diff.pairs_added > 0 && diff.entries_rehashed > 0 &&
       diff.verdicts > 0;

  remove_zone_set(set);
  std::remove(artifact.c_str());
  std::printf("smoke: %s\n", ok ? "streaming pipeline byte-identical" : "FAILED");
  return ok ? 0 : 1;
}

int run_full() {
  bench::header("Paper-scale streaming run over the shared mmap DB artifact");

  const auto& env = bench::standard_env();
  internet::ScenarioConfig config;
  config.total_domains = 300'000;
  config.reference_count = 1'000;
  config.attack_scale = 1.0;
  util::Stopwatch setup_watch;
  auto set = make_zones(env.db_union, config, "BENCH_scale");
  std::printf("scenario: %zu domains -> %zu zone files (%.2fs)\n",
              set.scenario.domains.size(), set.zones.size(), setup_watch.seconds());

  const std::string artifact = "BENCH_scale.artifact";
  write_artifact(artifact, env.simchar, env.db_union, set.scenario.references);
  const auto mapped = detect::Engine::from_db_file(artifact);
  const auto& refs = mapped.artifact()->references();
  const detect::Engine in_process{env.db_union};

  // --- RSS bound: streaming vs materialising the .com zone --------------
  const auto& com = set.zones.front();
  const std::size_t rss0 = measure::resident_kib();
  const measure::StreamOptions stream_options{.tld = com.tld, .batch_size = 4096};
  const auto streamed = measure::detect_sharded(
      mapped, refs, detect::Strategy::kSkeleton,
      measure::zone_file_slices(com.zone_path, 1, stream_options), 1);
  const std::size_t rss1 = measure::resident_kib();
  const std::size_t stream_delta = rss1 > rss0 ? rss1 - rss0 : 0;
  std::size_t materialize_delta = 0;
  {
    std::ifstream in{com.zone_path};
    const std::string text{std::istreambuf_iterator<char>{in}, {}};
    const auto zone = dns::parse_zone(text);
    const std::size_t rss2 = measure::resident_kib();
    materialize_delta = rss2 > rss1 ? rss2 - rss1 : 0;
    std::printf("zone materialised: %zu records, RSS +%zu KiB\n",
                zone.records.size(), materialize_delta);
  }
  std::printf("zone streamed: %zu records in %zu batches, RSS +%zu KiB\n",
              streamed.stream.records, streamed.stream.batches, stream_delta);
  const bool rss_bounded =
      materialize_delta > 1024 && stream_delta * 4 <= materialize_delta;

  // --- Verdict identity across paths and batch sizes --------------------
  bool identical = true;
  for (const auto& zone : set.zones) {
    identical = verdict_identity(mapped, in_process, refs, zone, true) && identical;
  }

  // --- Fleet: one engine per TLD over the shared artifact ---------------
  measure::FleetOptions fleet_options;
  fleet_options.db_file = artifact;
  fleet_options.zones = set.zones;
  fleet_options.batch_size = 4096;
  fleet_options.passes = 2;
  const auto fleet = measure::run_fleet(fleet_options);
  bool fleet_identical = fleet.ok();
  for (std::size_t i = 0; i < fleet.zones.size(); ++i) {
    const auto& z = fleet.zones[i];
    const measure::StreamOptions options{.tld = z.tld, .batch_size = 4096};
    const auto baseline = measure::detect_materialized(
        in_process, refs, set.zones[i].zone_path, options, detect::Strategy::kSerial);
    fleet_identical = fleet_identical && z.verdict_fingerprint == baseline.fingerprint;
    std::printf("fleet .%s: %zu domains at %.0f domains/s, %zu matches  [%s]\n",
                z.tld.c_str(), z.stream.domains, z.domains_per_second, z.matches,
                z.verdict_fingerprint == baseline.fingerprint ? "identical"
                                                              : "MISMATCH");
  }
  std::printf("fleet RSS: %zu -> %zu KiB over %zu workers (artifact %zu KiB)\n",
              fleet.rss_before_kib, fleet.rss_after_kib, fleet.zones.size(),
              fleet.artifact_bytes / 1024);

  // --- Streamed generator vs the written zone files ---------------------
  bench::header("Streaming zone generation");
  const bool genstream_identical = genstream_identity(env.db_union, config, set, true);

  // --- Shard sweep over a 1e6-domain generated zone ---------------------
  // Fingerprint identity is enforced everywhere; the speedup criterion is
  // only meaningful with cores to scale onto.
  const std::size_t cores = std::thread::hardware_concurrency();
  std::vector<GenRun> shard_runs;
  bool shard_identical = true;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    shard_runs.push_back(run_generated_fleet(artifact, config, 1'000'000, shards));
    const auto& r = shard_runs.back();
    shard_identical = shard_identical && r.ok && r.matches > 0 &&
                      r.fingerprint == shard_runs.front().fingerprint;
    std::printf("shard sweep 1e6 domains x%zu shards: %.0f domains/s, "
                "%zu matches, peak RSS %zu KiB  [%s]\n",
                shards, r.domains_per_second, r.matches, r.rss_peak_kib,
                r.fingerprint == shard_runs.front().fingerprint ? "identical"
                                                                : "MISMATCH");
  }
  const bool shard_speedup =
      shard_runs.back().domains_per_second >
      shard_runs.front().domains_per_second * 1.2;
  const char* shard_speedup_criterion =
      cores < 2 ? "hardware_skipped" : (shard_speedup ? "met" : "FAILED");
  std::printf("shard speedup (8 vs 1): %.2fx on %zu core(s)  [%s]\n",
              shard_runs.back().domains_per_second /
                  std::max(1.0, shard_runs.front().domains_per_second),
              cores, shard_speedup_criterion);

  // --- Bounded-RSS ladder: 2e6 then 1e7 generated domains ---------------
  bench::header("Bounded-RSS generate-and-detect ladder");
  std::vector<GenRun> ladder;
  for (const std::size_t domains : {std::size_t{2'000'000}, std::size_t{10'000'000}}) {
    ladder.push_back(run_generated_fleet(artifact, config, domains, 1));
    const auto& r = ladder.back();
    std::printf("generated %zu domains: %.1fs at %.0f domains/s, %zu matches, "
                "RSS %zu -> peak %zu -> %zu KiB\n",
                r.domains, r.seconds, r.domains_per_second, r.matches,
                r.rss_before_kib, r.rss_peak_kib, r.rss_after_kib);
  }
  // The ceiling must not move with the population: the 1e7 peak stays
  // within kGenRssSlackKib of the 2e6 peak (5x the domains, ~flat RSS).
  const bool gen_rss_bounded =
      ladder[0].ok && ladder[1].ok &&
      ladder[1].rss_peak_kib <= ladder[0].rss_peak_kib + kGenRssSlackKib;
  std::printf("peak-RSS delta 1e7 vs 2e6: %lld KiB (slack %zu KiB)  [%s]\n",
              static_cast<long long>(ladder[1].rss_peak_kib) -
                  static_cast<long long>(ladder[0].rss_peak_kib),
              kGenRssSlackKib, gen_rss_bounded ? "bounded" : "FAILED");

  // --- Generation-diff ingestion ----------------------------------------
  const auto diff = run_diff_feed(200, 20260808);
  std::printf("diff feed: %zu days, %zu pairs added, %zu index entries rehashed, "
              "%zu IDNs folded in\n",
              diff.days, diff.pairs_added, diff.entries_rehashed, diff.idns);

  // --- BENCH_scale.json --------------------------------------------------
  {
    util::JsonWriter w{2};
    w.begin_object();
    w.field("bench", "scale_run");
    w.field("stream_rss_delta_kib", static_cast<std::uint64_t>(stream_delta));
    w.field("materialize_rss_delta_kib",
            static_cast<std::uint64_t>(materialize_delta));
    w.field("rss_criterion", rss_bounded ? "met" : "FAILED");
    w.field("verdicts_identical_criterion", identical ? "met" : "FAILED");
    w.field("fleet_identical_criterion", fleet_identical ? "met" : "FAILED");
    w.field("genstream_identity_criterion",
            genstream_identical ? "met" : "FAILED");
    w.field("shard_fingerprint_criterion", shard_identical ? "met" : "FAILED");
    w.field("shard_speedup_criterion", shard_speedup_criterion);
    w.field("cores", static_cast<std::uint64_t>(cores));
    w.key("shard_throughput").begin_array();
    for (const auto& r : shard_runs) {
      w.begin_object();
      w.field("shards", static_cast<std::uint64_t>(r.shards));
      w.field("domains", static_cast<std::uint64_t>(r.domains));
      w.field("domains_per_second", r.domains_per_second);
      w.field("rss_peak_kib", static_cast<std::uint64_t>(r.rss_peak_kib));
      w.end_object();
    }
    w.end_array();
    w.key("genstream_runs").begin_array();
    for (const auto& r : ladder) {
      w.begin_object();
      w.field("domains", static_cast<std::uint64_t>(r.domains));
      w.field("seconds", r.seconds);
      w.field("domains_per_second", r.domains_per_second);
      w.field("matches", static_cast<std::uint64_t>(r.matches));
      w.field("rss_before_kib", static_cast<std::uint64_t>(r.rss_before_kib));
      w.field("rss_peak_kib", static_cast<std::uint64_t>(r.rss_peak_kib));
      w.field("rss_after_kib", static_cast<std::uint64_t>(r.rss_after_kib));
      w.end_object();
    }
    w.end_array();
    w.field("genstream_rss_slack_kib",
            static_cast<std::uint64_t>(kGenRssSlackKib));
    w.field("genstream_rss_criterion", gen_rss_bounded ? "met" : "FAILED");
    w.field("diff_rebuild_criterion", diff.equivalence.ok() ? "met" : "FAILED");
    w.field("diff_days", static_cast<std::uint64_t>(diff.days));
    w.field("diff_pairs_added", static_cast<std::uint64_t>(diff.pairs_added));
    w.field("diff_entries_rehashed",
            static_cast<std::uint64_t>(diff.entries_rehashed));
    w.key("fleet").raw(fleet.to_json(2));
    w.end_object();
    if (std::FILE* f = std::fopen("BENCH_scale.json", "w")) {
      std::fputs(w.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote BENCH_scale.json\n");
    }
  }

  remove_zone_set(set);
  std::remove(artifact.c_str());

  bench::shape("streaming verdicts byte-identical to materialised path", identical);
  bench::shape("streaming RSS growth a fraction of zone materialisation",
               rss_bounded);
  bench::shape("fleet workers byte-identical over one shared artifact",
               fleet_identical);
  bench::shape("streamed generator byte-identical to written zone files",
               genstream_identical);
  bench::shape("sharded verdict fingerprints identical at 1/2/8 shards",
               shard_identical);
  bench::shape("1e7-domain generated run peak RSS flat vs 2e6", gen_rss_bounded);
  bench::shape("incremental diff state identical to full rebuild",
               diff.equivalence.ok());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  return run_full();
}
