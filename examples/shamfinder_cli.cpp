// shamfinder_cli — a command-line front end over the whole framework.
//
//   check <domain> --refs name1,name2,...   detect + explain a homograph
//   candidates <brand> [max]                registerable homographs
//   revert <domain>                         recover the original (Section 6.4)
//   inspect <utf8-char-or-U+XXXX>           character dossier + homoglyphs
//   policy <domain>                         browser display-policy decisions
//   serve --refs a,b,c                      resident service over stdin domains
//   replay                                  closed-loop replay + latency report
//   build-db <path> --refs a,b,c            serialize the DB artifact (mmap-ready)
//   scale-run --db-file p --zone tld:path   multi-TLD streaming fleet over one
//                                           shared artifact (JSON report)
//
// The homoglyph database is built once per invocation from the system font
// (or the synthetic font without FreeType) — or, with --db-file, memory-
// mapped from a prebuilt artifact (see build-db) with zero parsing.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/browser_policy.hpp"
#include "core/shamfinder.hpp"
#include "core/warning.hpp"
#include "db/artifact.hpp"
#include "detect/candidates.hpp"
#include "detect/skeleton_index.hpp"
#include "font/freetype_font.hpp"
#include "font/paper_font.hpp"
#include "idna/idna.hpp"
#include "measure/scale_run.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "unicode/blocks.hpp"
#include "unicode/idna_properties.hpp"
#include "unicode/utf8.hpp"
#include "util/strings.hpp"

namespace {

using namespace sham;

font::FontSourcePtr open_font() {
  font::FontSourcePtr font = font::FreeTypeFont::open_system_font();
  if (font == nullptr) font = font::make_paper_font({}).font;
  return font;
}

core::ShamFinder make_finder(const core::ShamFinderConfig& config = {}) {
  const auto font = open_font();
  std::fprintf(stderr, "[db] building from %s ...\n", font->name().c_str());
  return core::ShamFinder::build_from_font(*font, config);
}

std::shared_ptr<const db::DbArtifact> load_artifact(const std::string& path) {
  auto artifact =
      std::make_shared<const db::DbArtifact>(db::DbArtifact::load(path));
  std::fprintf(stderr,
               "[db] mapped %s: %zu bytes, generation %llu, %zu reference(s), "
               "skeleton %s\n",
               path.c_str(), artifact->file_size(),
               static_cast<unsigned long long>(artifact->generation()),
               artifact->references().size(),
               artifact->has_skeleton() ? "yes" : "no");
  return artifact;
}

/// Parse `value`, the argument of `flag`, as a non-negative decimal integer
/// of type T; anything else, including a value T cannot hold, throws
/// std::invalid_argument naming the flag, which main() reports as a usage
/// error (exit 2).
template <typename T>
T parse_number(std::string_view flag, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc{} || ptr != end) {
    throw std::invalid_argument{std::string{flag} +
                                " needs a non-negative integer, got '" + value + "'"};
  }
  return out;
}

/// Reject positional arguments a command does not take: any beyond its
/// first `max`, and a first argument starting with '-' (a mistyped flag)
/// unless `dash_ok`. Throws std::invalid_argument naming the argument,
/// which main() reports as a usage error (exit 2) before any work.
void check_positionals(const std::vector<std::string>& args, std::size_t max,
                       std::string_view synopsis, bool dash_ok = false) {
  if (!dash_ok && args[0].starts_with('-')) {
    throw std::invalid_argument{"'" + args[0] + "' starts with '-'; expected " +
                                std::string{synopsis}};
  }
  if (args.size() > max) {
    throw std::invalid_argument{"unexpected argument '" + args[max] + "'; expected " +
                                std::string{synopsis}};
  }
}

/// Walk a command's flags, `args` from index `first` on: each flag in
/// `value_flags` takes the next argument as its value, each in `switches`
/// takes none (its value is empty), and `on_flag(flag, value)` sees them in
/// order. An unknown flag, or a value flag with nothing after it, throws
/// std::invalid_argument naming it, which main() reports as a usage error
/// (exit 2) before any work; `on_flag` reports a bad value the same way.
template <typename OnFlag>
void parse_flags(const std::vector<std::string>& args, std::size_t first,
                 std::initializer_list<std::string_view> value_flags,
                 std::initializer_list<std::string_view> switches, OnFlag on_flag) {
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (std::ranges::find(switches, flag) != switches.end()) {
      on_flag(flag, std::string{});
    } else if (std::ranges::find(value_flags, flag) == value_flags.end()) {
      throw std::invalid_argument{"unknown argument " + flag};
    } else if (i + 1 == args.size()) {
      throw std::invalid_argument{flag + " needs a value"};
    } else {
      on_flag(flag, args[++i]);
    }
  }
}

/// The strategy `value` names; anything else throws std::invalid_argument.
detect::Strategy strategy_flag(const std::string& value) {
  const auto strategy = detect::parse_strategy(value);
  if (!strategy) {
    throw std::invalid_argument{"unknown strategy " + value + " (serial|skeleton)"};
  }
  return *strategy;
}

/// True when `--help` or `-h` appears anywhere in `args`.
bool wants_help(const std::vector<std::string>& args) {
  for (const auto& arg : args) {
    if (arg == "--help" || arg == "-h") return true;
  }
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: shamfinder_cli <command> ...\n"
               "  build-db <out-path>            build the databases and serialize\n"
               "        [--refs a,b,c]           them (plus a reference-side skeleton\n"
               "                                 index) into one mmap-ready artifact\n"
               "                                 file\n"
               "  check <domain> --refs a,b,c    detect homograph vs references\n"
               "        [--db-file path]         mmap a build-db artifact instead of\n"
               "                                 building from the font (refs default\n"
               "                                 to the artifact's reference list)\n"
               "        [--strategy serial|skeleton] [--threads N]\n"
               "        [--repeat N]             run the query N times (shows the\n"
               "                                 engine's index/result cache at work)\n"
               "        [--stats-json]           print DetectionStats as JSON\n"
               "  candidates <brand> [max]       enumerate registerable homographs\n"
               "  revert <domain>                recover the spoofed original\n"
               "  inspect <char|U+XXXX>          character dossier\n"
               "  policy <domain>                browser display decisions\n"
               "  serve --refs a,b,c             read one IDN per stdin line, detect\n"
               "        [--db-file path]         each through the resident server,\n"
               "        [--slots N] [--queue N]  report per-domain verdicts and the\n"
               "        [--policy reject|block]  server stats on EOF\n"
               "        [--stats-json]\n"
               "  replay [--clients N] [--requests N] [--slots N] [--seed N]\n"
               "        [--no-verify] [--db-file path]\n"
               "                                 synthetic closed-loop replay; prints\n"
               "                                 the latency/coalescing report JSON\n"
               "  scale-run --db-file path       stream registry zones through one\n"
               "        --zone <tld>:<path>      engine per TLD, all sharing one\n"
               "        [--zone ...]             mapping of the build-db artifact; prints\n"
               "        [--batch N] [--passes N] the fleet throughput/RSS report as\n"
               "        [--strategy serial|skeleton]\n"
               "                                 JSON (exit 1 if any worker failed)\n"
               "        [--domains N]            synthesize N-domain zones on the fly\n"
               "        [--tlds com,net]         instead of reading --zone files\n"
               "        [--seed N]               (seeded generator)\n"
               "        [--shards N]             threads per zone, 1-256; N > 1\n"
               "                                 threads take 8N slices per zone,\n"
               "                                 in order\n"
               "        [--chunk-bytes N]        generator chunk size\n"
               "        [--progress N]           stderr progress line every N domains\n"
               "  --help or -h on any command prints this usage\n");
  return 2;
}

/// build-db <out-path> [--refs a,b,c]: serialize the full preprocessing
/// output into one mmap-ready artifact. When references are given, a
/// reference-side skeleton index is built and embedded so a loading
/// engine's first skeleton query skips the index build. An output path
/// starting with '-' is rejected (it is almost always a mistyped flag)
/// before anything is written.
int cmd_build_db(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string out_path = args[0];
  if (out_path.starts_with('-')) {
    std::fprintf(stderr,
                 "build-db: output path '%s' starts with '-'; expected "
                 "build-db <out-path> [--refs a,b,c]\n",
                 out_path.c_str());
    return 2;
  }
  std::vector<std::string> refs;
  parse_flags(args, 1, {"--refs"}, {}, [&](const std::string&, const std::string& value) {
    for (const auto part : util::split(value, ',')) refs.emplace_back(part);
  });
  const auto font = open_font();
  std::fprintf(stderr, "[db] building from %s ...\n", font->name().c_str());
  const auto finder = core::ShamFinder::build_from_font(*font);

  db::WriteRequest request;
  request.simchar = &finder.simchar();
  request.homoglyph = &finder.db();

  db::SkeletonFlat skeleton;
  if (!refs.empty()) {
    const detect::SkeletonIndex index{finder.db(), std::span<const std::string>{refs}};
    skeleton = index.to_flat();
    request.references = refs;
    request.reference_fingerprint =
        detect::label_set_fingerprint(std::span<const std::string>{refs});
    request.skeleton = &skeleton;
  }

  db::write_db_file(out_path, request);
  const auto artifact = db::DbArtifact::load(out_path);
  std::printf("wrote %s: %zu bytes, generation %llu, %zu pair(s), "
              "%zu reference(s), skeleton %s\n",
              out_path.c_str(), artifact.file_size(),
              static_cast<unsigned long long>(artifact.generation()),
              finder.simchar().pairs().size(), artifact.references().size(),
              artifact.has_skeleton() ? "yes" : "no");
  return 0;
}

/// scale-run --db-file <path> --zone <tld>:<zone-path> [--zone ...]
/// [--batch N] [--passes N] [--strategy s] [--domains N] [--tlds a,b]
/// [--seed N] [--shards N] [--chunk-bytes N] [--progress N]: the multi-TLD
/// streaming fleet — one engine per zone, all over one mapping of the
/// artifact, each zone parsed and detected on `--shards` threads (1-256)
/// that take 8 slices each, in bounded-memory batches. `--domains N`
/// replaces on-disk zones with seed-deterministic synthetic zones
/// generated on the fly (never materialized); `--progress N` reports
/// domains streamed and the current resident set every N owner names.
/// Prints the FleetReport JSON.
int cmd_scale_run(const std::vector<std::string>& args) {
  measure::FleetOptions options;
  std::size_t domains = 0;
  std::uint64_t seed = 2019;
  std::size_t chunk_bytes = 256 * 1024;
  std::vector<std::string> tlds = {"com"};
  parse_flags(
      args, 0,
      {"--db-file", "--zone", "--batch", "--passes", "--domains", "--tlds", "--seed",
       "--shards", "--chunk-bytes", "--progress", "--strategy"},
      {}, [&](const std::string& flag, const std::string& value) {
        if (flag == "--db-file") {
          options.db_file = value;
        } else if (flag == "--zone") {
          const auto colon = value.find(':');
          if (colon == std::string::npos || colon == 0 || colon + 1 >= value.size()) {
            throw std::invalid_argument{"--zone expects <tld>:<path>, got '" + value +
                                        "'"};
          }
          options.zones.push_back({value.substr(0, colon), value.substr(colon + 1)});
        } else if (flag == "--batch") {
          options.batch_size = parse_number<std::size_t>(flag, value);
        } else if (flag == "--passes") {
          options.passes = parse_number<std::size_t>(flag, value);
        } else if (flag == "--domains") {
          domains = parse_number<std::size_t>(flag, value);
        } else if (flag == "--tlds") {
          tlds.clear();
          for (const auto part : util::split(value, ',')) tlds.emplace_back(part);
        } else if (flag == "--seed") {
          seed = parse_number<std::uint64_t>(flag, value);
        } else if (flag == "--shards") {
          options.shards = parse_number<std::size_t>(flag, value);
          if (options.shards == 0 || options.shards > measure::kMaxShards) {
            throw std::invalid_argument{"--shards needs 1-" +
                                        std::to_string(measure::kMaxShards) +
                                        ", got '" + value + "'"};
          }
        } else if (flag == "--chunk-bytes") {
          chunk_bytes = parse_number<std::size_t>(flag, value);
        } else if (flag == "--progress") {
          options.progress_interval = parse_number<std::size_t>(flag, value);
        } else if (flag == "--strategy") {
          options.strategy = strategy_flag(value);
        }
      });
  if (domains > 0) {
    // Synthetic fleet: one generated zone per TLD (which=2, the union
    // list, so every one of the N population indexes is streamed).
    for (const auto& tld : tlds) {
      measure::FleetZone zone;
      zone.tld = tld;
      zone.scenario.seed = seed;
      zone.scenario.total_domains = domains;
      zone.which = 2;
      zone.chunk_bytes = chunk_bytes;
      options.zones.push_back(std::move(zone));
    }
  }
  if (options.db_file.empty() || options.zones.empty()) {
    std::fprintf(stderr,
                 "scale-run: --db-file and at least one --zone or --domains "
                 "are required\n");
    return usage();
  }
  if (options.progress_interval > 0) {
    options.on_progress = [](const std::string& tld,
                             const measure::StreamProgress& p) {
      std::fprintf(stderr,
                   "[scale-run] .%s: %zu domains, %zu IDNs, RSS %zu KiB\n",
                   tld.c_str(), p.domains, p.idns, p.rss_kib);
    };
  }
  const auto report = measure::run_fleet(options);
  std::printf("%s\n", report.to_json(2).c_str());
  if (!report.ok()) {
    for (const auto& z : report.zones) {
      if (!z.error.empty()) {
        std::fprintf(stderr, "scale-run: .%s failed: %s\n", z.tld.c_str(),
                     z.error.c_str());
      }
    }
    return 1;
  }
  return 0;
}

std::optional<unicode::U32String> label_of(const std::string& domain) {
  // Accept either wire form (xn--) or UTF-8; use the SLD label.
  const auto dot = domain.find('.');
  const std::string label = dot == std::string::npos ? domain : domain.substr(0, dot);
  if (idna::is_a_label(label)) return idna::to_u_label(label);
  return unicode::decode_utf8(label);
}

/// check <domain> [flags]: every flag but --stats-json takes a value. An
/// unknown flag, a flag without its value, or a domain starting with '-'
/// (a flag typed before the domain) is a usage error naming it.
int cmd_check(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  if (args[0].starts_with('-')) {
    std::fprintf(stderr,
                 "check: domain '%s' starts with '-'; expected "
                 "check <domain> --refs a,b,c\n",
                 args[0].c_str());
    return 2;
  }
  bool stats_json = false;
  std::vector<std::string> refs;
  core::ShamFinderConfig config;
  std::size_t repeat = 1;
  std::string db_file;
  parse_flags(args, 1, {"--db-file", "--repeat", "--refs", "--strategy", "--threads"},
              {"--stats-json"}, [&](const std::string& flag, const std::string& value) {
                if (flag == "--stats-json") {
                  stats_json = true;
                } else if (flag == "--db-file") {
                  db_file = value;
                } else if (flag == "--repeat") {
                  repeat = parse_number<std::size_t>(flag, value);
                  if (repeat == 0) {
                    throw std::invalid_argument{"--repeat needs a positive integer, got 0"};
                  }
                } else if (flag == "--refs") {
                  for (const auto part : util::split(value, ',')) refs.emplace_back(part);
                } else if (flag == "--strategy") {
                  config.engine.strategy = strategy_flag(value);
                } else if (flag == "--threads") {
                  config.engine.threads = parse_number<std::size_t>(flag, value);
                }
              });
  const auto label = label_of(args[0]);
  if (!label) {
    std::fprintf(stderr, "check: cannot decode %s\n", args[0].c_str());
    return 2;
  }
  // Either mmap a prebuilt artifact (zero-parse cold start; the engine
  // arrives with the artifact's reference-side skeleton index pre-seeded)
  // or build from the font. Both paths run the same detect() entry point.
  std::optional<core::ShamFinder> finder;
  std::optional<detect::Engine> engine;
  if (!db_file.empty()) {
    const auto artifact = load_artifact(db_file);
    if (refs.empty()) refs = artifact->references();
    engine.emplace(detect::Engine::from_db_artifact(artifact, config.engine));
  } else {
    finder.emplace(make_finder(config));
  }
  if (refs.empty()) {
    std::fprintf(stderr, "check: need --refs name1,name2,... "
                 "(or a --db-file with embedded references)\n");
    return 2;
  }
  std::vector<detect::IdnEntry> idns{{idna::to_a_label(*label), *label}};
  detect::DetectionStats stats;
  std::vector<detect::Match> matches;
  for (std::size_t iteration = 0; iteration < repeat; ++iteration) {
    if (engine) {
      auto response = engine->detect({.references = refs, .idns = idns});
      matches = std::move(response.matches);
      stats = response.stats;
    } else {
      matches = finder->find_homographs(refs, idns, &stats);
    }
    const char* served = stats.result_cache_hits != 0  ? "result memo"
                         : stats.index_cache_hits != 0 ? "cached index"
                         : stats.index_cache_updates != 0
                             ? "incrementally updated index"
                             : "cold build";
    std::fprintf(stderr,
                 "[detect #%zu] %s%s, %zu thread(s), %zu shard(s), %.3f ms "
                 "(%s; build %.3f ms, gen %llu)\n",
                 iteration + 1,
                 std::string{detect::strategy_name(config.engine.strategy)}.c_str(),
                 stats.inverted_join ? "/inverted" : "", stats.threads_used,
                 stats.shards_used, stats.seconds * 1e3, served,
                 stats.skeleton_build_seconds * 1e3,
                 static_cast<unsigned long long>(stats.db_generation));
  }
  // Same versioned schema the serve stats and benches emit.
  if (stats_json) std::printf("%s\n", stats.to_json(2).c_str());
  if (matches.empty()) {
    std::printf("%s: no homograph of the given references detected\n",
                args[0].c_str());
    return 0;
  }
  for (const auto& match : matches) {
    const auto warning =
        core::make_warning(match, refs[match.reference_index], idns[0]);
    std::printf("%s\n", warning.render().c_str());
  }
  return 1;  // homograph found
}

int cmd_candidates(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  check_positionals(args, 2, "candidates <brand> [max]");
  const std::size_t max = args.size() > 1 ? parse_number<std::size_t>("max", args[1]) : 40;
  const auto finder = make_finder();
  detect::CandidateOptions options;
  options.max_candidates = max;
  const auto candidates = detect::generate_candidates(finder.db(), args[0], options);
  std::printf("%zu candidates for \"%s\":\n", candidates.size(), args[0].c_str());
  for (const auto& c : candidates) {
    std::printf("  %-20s %s\n", unicode::to_utf8(c.unicode).c_str(), c.ace.c_str());
  }
  return 0;
}

int cmd_revert(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  check_positionals(args, 1, "revert <domain>");
  const auto label = label_of(args[0]);
  if (!label) {
    std::fprintf(stderr, "revert: cannot decode %s\n", args[0].c_str());
    return 2;
  }
  const auto finder = make_finder();
  const auto original = finder.revert(*label);
  if (!original) {
    std::printf("%s: no full ASCII original under this database\n", args[0].c_str());
    return 1;
  }
  std::printf("%s -> %s\n", unicode::to_utf8(*label).c_str(), original->c_str());
  return 0;
}

int cmd_inspect(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  constexpr std::string_view kSynopsis = "inspect <char|U+XXXX>";
  check_positionals(args, 1, kSynopsis, /*dash_ok=*/true);
  const auto not_a_character = [&] {
    return std::invalid_argument{"'" + args[0] + "' is neither U+XXXX nor one character; " +
                                 "expected " + std::string{kSynopsis}};
  };
  unicode::CodePoint cp = 0;
  if (util::starts_with(args[0], "U+") || util::starts_with(args[0], "u+")) {
    try {
      cp = util::parse_hex_codepoint(args[0]);
    } catch (const std::invalid_argument&) {
      throw not_a_character();
    }
    if (cp > unicode::kMaxCodePoint) throw not_a_character();
  } else {
    const auto decoded = unicode::decode_utf8(args[0]);
    if (!decoded || decoded->size() != 1) throw not_a_character();
    cp = decoded->front();
  }
  std::printf("%s '%s'\n", util::format_codepoint(cp).c_str(),
              unicode::to_utf8(cp).c_str());
  std::printf("  block   : %s\n", std::string{unicode::block_name(cp)}.c_str());
  std::printf("  idna    : %s\n",
              std::string{unicode::idna_property_name(unicode::idna_property(cp))}.c_str());
  const auto finder = make_finder();
  const auto homoglyphs = finder.db().homoglyphs_of(cp);
  std::printf("  homoglyphs (%zu):", homoglyphs.size());
  for (const auto h : homoglyphs) {
    std::printf(" %s'%s'", util::format_codepoint(h).c_str(),
                unicode::to_utf8(h).c_str());
  }
  std::printf("\n");
  return 0;
}

int cmd_policy(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  check_positionals(args, 1, "policy <domain>");
  const auto label = label_of(args[0]);
  if (!label) {
    std::fprintf(stderr, "policy: cannot decode %s\n", args[0].c_str());
    return 2;
  }
  const auto finder = make_finder();
  const auto report = [&](const char* name, const core::PolicyResult& r) {
    std::printf("  %-24s %-9s (%s)\n", name,
                r.decision == core::DisplayDecision::kUnicode ? "Unicode" : "Punycode",
                r.reason.c_str());
  };
  std::printf("display decisions for %s:\n", unicode::to_utf8(*label).c_str());
  report("legacy", core::legacy_policy(*label));
  report("mixed-script", core::mixed_script_policy(*label));
  report("whole-script-confusable", core::whole_script_policy(*label, &finder.db()));
  return 0;
}

/// Resident service: one server over the font-built database, one request
/// per stdin line. Lines are submitted as they arrive (the slots work
/// concurrently); verdicts print in input order on EOF.
int cmd_serve(const std::vector<std::string>& args) {
  std::vector<std::string> refs;
  serve::ServerOptions options;
  bool stats_json = false;
  std::string db_file;
  parse_flags(args, 0, {"--db-file", "--refs", "--slots", "--queue", "--policy"},
              {"--stats-json"}, [&](const std::string& flag, const std::string& value) {
                if (flag == "--stats-json") {
                  stats_json = true;
                } else if (flag == "--db-file") {
                  db_file = value;
                } else if (flag == "--refs") {
                  for (const auto part : util::split(value, ',')) refs.emplace_back(part);
                } else if (flag == "--slots") {
                  options.slots = parse_number<std::size_t>(flag, value);
                } else if (flag == "--queue") {
                  options.queue_capacity = parse_number<std::size_t>(flag, value);
                } else if (flag == "--policy") {
                  if (value == "reject") {
                    options.overload = serve::OverloadPolicy::kRejectWhenFull;
                  } else if (value == "block") {
                    options.overload = serve::OverloadPolicy::kBlock;
                  } else {
                    throw std::invalid_argument{"unknown policy " + value +
                                                " (reject|block)"};
                  }
                }
              });
  // The server borrows its database: either the font-built one inside the
  // facade, or a view-mode database reading a mapped artifact in place
  // (the artifact shared_ptr and the view database must outlive the
  // server, hence the optionals at this scope).
  std::optional<core::ShamFinder> finder;
  std::shared_ptr<const db::DbArtifact> artifact;
  std::optional<homoglyph::HomoglyphDb> view_db;
  detect::EngineOptions engine_options;
  if (!db_file.empty()) {
    artifact = load_artifact(db_file);
    view_db.emplace(artifact->homoglyph());
    if (refs.empty()) refs = artifact->references();
  } else {
    finder.emplace(make_finder());
    engine_options = finder->engine_options();
  }
  if (refs.empty()) {
    std::fprintf(stderr, "serve: need --refs name1,name2,... "
                 "(or a --db-file with embedded references)\n");
    return 2;
  }
  const homoglyph::HomoglyphDb& db = view_db ? *view_db : finder->db();
  serve::DetectionServer server{db, engine_options, options};
  std::fprintf(stderr, "[serve] %zu slot(s), queue %zu, %s; reading domains "
               "from stdin ...\n",
               server.options().slots, server.options().queue_capacity,
               std::string{serve::overload_policy_name(server.options().overload)}
                   .c_str());

  std::vector<std::pair<std::string, serve::ResponseFuture>> in_flight;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const auto label = label_of(line);
    if (!label) {
      std::fprintf(stderr, "serve: cannot decode %s, skipped\n", line.c_str());
      continue;
    }
    auto zone = std::make_shared<std::vector<detect::IdnEntry>>();
    zone->push_back({idna::to_a_label(*label), *label});
    serve::ServeRequest request;
    request.references = refs;
    request.idns = std::move(zone);
    in_flight.emplace_back(line, server.submit(std::move(request)));
  }
  int found = 0;
  for (auto& [domain, future] : in_flight) {
    auto response = future.get();
    if (response.status != serve::ServeStatus::kOk) {
      std::printf("%-30s %s\n", domain.c_str(),
                  std::string{serve::status_name(response.status)}.c_str());
      continue;
    }
    if (response.matches.empty()) {
      std::printf("%-30s clean\n", domain.c_str());
    } else {
      ++found;
      std::printf("%-30s HOMOGRAPH of %s\n", domain.c_str(),
                  refs[response.matches.front().reference_index].c_str());
    }
  }
  if (stats_json) std::printf("%s\n", server.stats().to_json(2).c_str());
  return found > 0 ? 1 : 0;
}

/// Synthetic closed-loop replay against a resident server (the library's
/// own workload generator); prints the ReplayReport JSON.
int cmd_replay(const std::vector<std::string>& args) {
  serve::ReplayConfig config;
  serve::ServerOptions options;
  options.queue_capacity = 128;
  std::string db_file;
  parse_flags(args, 0, {"--db-file", "--clients", "--requests", "--slots", "--seed"},
              {"--no-verify"}, [&](const std::string& flag, const std::string& value) {
                if (flag == "--no-verify") {
                  config.verify = false;
                } else if (flag == "--db-file") {
                  db_file = value;
                } else if (flag == "--clients") {
                  config.clients = parse_number<std::size_t>(flag, value);
                } else if (flag == "--requests") {
                  config.requests_per_client = parse_number<std::size_t>(flag, value);
                } else if (flag == "--slots") {
                  options.slots = parse_number<std::size_t>(flag, value);
                } else if (flag == "--seed") {
                  config.seed = parse_number<std::uint64_t>(flag, value);
                }
              });
  std::optional<core::ShamFinder> finder;
  std::shared_ptr<const db::DbArtifact> artifact;
  std::optional<homoglyph::HomoglyphDb> view_db;
  detect::EngineOptions engine_options;
  if (!db_file.empty()) {
    artifact = load_artifact(db_file);
    view_db.emplace(artifact->homoglyph());
  } else {
    finder.emplace(make_finder());
    engine_options = finder->engine_options();
  }
  const homoglyph::HomoglyphDb& db = view_db ? *view_db : finder->db();
  const auto workload = serve::make_replay_workload(db, 16, 12, 2, 2000, config.seed);
  serve::DetectionServer server{db, engine_options, options};
  const auto report = serve::run_replay(server, db, workload, config);
  std::printf("%s\n", report.to_json(2).c_str());
  return report.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  // --help or -h anywhere prints usage before any command does work.
  if (wants_help(args)) return usage();
  // Corrupt/missing artifacts (and other environmental failures) surface
  // as exceptions with a diagnostic naming the failing check, as do bad
  // numeric arguments (parse_number) — print it, don't terminate().
  try {
    if (command == "build-db") return cmd_build_db(args);
    if (command == "scale-run") return cmd_scale_run(args);
    if (command == "check") return cmd_check(args);
    if (command == "candidates") return cmd_candidates(args);
    if (command == "revert") return cmd_revert(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "policy") return cmd_policy(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "replay") return cmd_replay(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), e.what());
    return 2;
  }
  return usage();
}
