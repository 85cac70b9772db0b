// ShamFinder: the top-level framework API (Figure 1).
//
//   Step 1  collect registered domain names (zone files / domain lists);
//   Step 2  extract IDNs (names with an "xn--" label);
//   Step 3  match IDNs against a reference list of popular names using the
//           homoglyph database (UC ∪ SimChar).
//
// This facade owns the built databases and exposes the pipeline steps;
// examples/ and bench/ drive everything through it.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "detect/engine.hpp"
#include "font/font_source.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "simchar/simchar.hpp"
#include "unicode/confusables.hpp"

namespace sham::core {

struct ShamFinderConfig {
  simchar::BuildOptions build;       // SimChar construction options
  homoglyph::DbConfig db;            // which sub-databases to enable
  detect::EngineOptions engine;      // detection strategy and threading
};

class ShamFinder {
 public:
  /// Build SimChar from `font`, compose with the embedded UC database.
  static ShamFinder build_from_font(const font::FontSource& font,
                                    const ShamFinderConfig& config = {},
                                    simchar::BuildStats* stats = nullptr);

  /// Compose from prebuilt databases (e.g. a deserialized SimChar).
  ShamFinder(simchar::SimCharDb simchar_db, const unicode::ConfusablesDb& uc,
             const homoglyph::DbConfig& config = {},
             const detect::EngineOptions& engine = {});

  // The facade owns a persistent detect::Engine wired to db_ so repeated
  // find_homographs calls against a stable IDN snapshot reuse the cached
  // skeleton index; moving rebinds the engine to the moved-into
  // database (the cache starts cold in the destination).
  ShamFinder(ShamFinder&& other) noexcept;
  ShamFinder& operator=(ShamFinder&& other) noexcept;
  ShamFinder(const ShamFinder&) = delete;
  ShamFinder& operator=(const ShamFinder&) = delete;

  [[nodiscard]] const simchar::SimCharDb& simchar() const noexcept { return simchar_; }
  [[nodiscard]] const homoglyph::HomoglyphDb& db() const noexcept { return db_; }

  /// Step 2: extract the IDNs of `tld` from a registered-domain list and
  /// decode them. Names whose A-labels fail to decode are skipped (they
  /// cannot be displayed as Unicode, hence cannot be homographs).
  /// Returned entries hold the SLD label with the TLD removed, as
  /// Algorithm 1 expects.
  [[nodiscard]] static std::vector<detect::IdnEntry> extract_idns(
      std::span<const std::string> domains, std::string_view tld = "com");

  /// Step 3: run Algorithm 1 through the detection engine, under the
  /// strategy and thread count of ShamFinderConfig::engine (default: the
  /// skeleton-hash candidate index with exact verification, sharded over
  /// all cores; Strategy::kSerial runs Algorithm 1 as printed; output is
  /// identical under both).
  ///
  /// detect::Engine::detect(DetectRequest) — reached through this facade,
  /// directly, or through serve::DetectionServer — is the single supported
  /// list-vs-list detection entry point; the old HomographDetector
  /// detect/detect_indexed/detect_unicode wrappers no longer exist.
  [[nodiscard]] std::vector<detect::Match> find_homographs(
      std::span<const std::string> references, std::span<const detect::IdnEntry> idns,
      detect::DetectionStats* stats = nullptr) const;

  [[nodiscard]] const detect::EngineOptions& engine_options() const noexcept {
    return engine_options_;
  }

  /// Revert a homograph to its plausible original (Section 6.4).
  [[nodiscard]] std::optional<std::string> revert(const unicode::U32String& label) const;

 private:
  simchar::SimCharDb simchar_;
  homoglyph::HomoglyphDb db_;
  detect::EngineOptions engine_options_;
  detect::Engine engine_;  // bound to db_; owns the cached indexes
};

}  // namespace sham::core
