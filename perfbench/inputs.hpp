// Seeded benchmark inputs and the build-db pipeline that produces the DB
// artifact.
//
// Every input is a pure function of the seed: the paper font, the SimChar
// and homoglyph databases built from it, the scenario's 10 K references
// and planted attacks, the 2 M-domain .com zone file, the list of IDN
// owner labels in that zone, and the artifact build-db writes from all of
// it. prepare_inputs() writes them once per (seed, sizes) under the cache
// root, with a manifest of content fingerprints; load_inputs() re-checks
// every file against the manifest before each run, so a stale or damaged
// cache fails the run instead of silently changing a workload.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "font/paper_font.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "simchar/simchar.hpp"

namespace shambench {

/// Registry zone size: the paper-scale baseline of the streaming scan.
inline constexpr std::size_t kZoneDomains = 2'000'000;
/// Reference list length: the paper's Alexa top-10K.
inline constexpr std::size_t kReferences = 10'000;
/// Paper-font scale. Coverage saturates near 49.8 K glyphs whatever the
/// scale, and font construction slows from 0.2 s to over 12 s above 7.5,
/// so 7.5 (about 47 K glyphs, 90 % of Table 5's 52,457) is the largest
/// repertoire whose set-up stays short.
inline constexpr double kFontScale = 7.5;

struct PlantedAttackRef {
  std::string ace;     // registered label, TLD removed
  std::string target;  // reference label it imitates
};

struct Inputs {
  std::uint64_t seed = 0;
  std::string dir;
  std::string artifact_path;
  std::string zone_path;
  std::vector<std::string> references;
  std::vector<std::string> idn_aces;  // IDN owner labels of the zone, zone order
  std::vector<PlantedAttackRef> attacks;
  std::size_t glyphs = 0;  // paper-font coverage
  std::size_t artifact_bytes = 0;
  std::size_t zone_bytes = 0;
  std::uint64_t artifact_fingerprint = 0;
  std::uint64_t zone_fingerprint = 0;
};

[[nodiscard]] sham::font::PaperFont make_font(std::uint64_t seed);

/// Step I-III plus the homoglyph composition, as build-db runs them.
struct Databases {
  sham::simchar::SimCharDb simchar;
  sham::homoglyph::HomoglyphDb homoglyph;
};

/// What the build-db calls report: SimCharDb::build's stage split and
/// the panel size.
struct BuildTimes {
  std::size_t panel_glyphs = 0;
  sham::simchar::BuildStats stats;
};

/// SimCharDb::build (default options) and HomoglyphDb over the embedded UC.
[[nodiscard]] Databases build_databases(const sham::font::FontSource& font,
                                        BuildTimes& times, Tracer* tracer = nullptr,
                                        std::uint64_t parent = 0);

/// The rest of build-db: reference SkeletonIndex, repertoire panel, and
/// db::write_db_file (fsync + rename) to `path`.
void write_artifact(const sham::font::FontSource& font, const Databases& dbs,
                    std::span<const std::string> references, const std::string& path,
                    BuildTimes& times, Tracer* tracer = nullptr, std::uint64_t parent = 0);

/// Generate the inputs of `seed` under `root` unless a complete set is
/// already cached there; keeps the few most recent seeds. Returns the
/// input directory.
std::string prepare_inputs(const std::string& root, std::uint64_t seed);

/// Read the cached inputs of `seed`, checking every file against its
/// manifest fingerprint. Throws std::runtime_error on any mismatch.
[[nodiscard]] Inputs load_inputs(const std::string& root, std::uint64_t seed);

}  // namespace shambench
