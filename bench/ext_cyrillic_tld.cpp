// Extension experiment (Section 7.1): homographs under a non-Latin TLD.
// The paper notes its blacklists held 1,054 domains under 'рф' (the
// Cyrillic ccTLD) and defers the analysis; the framework itself "can cover
// homoglyphs consisting of any characters". Here: a synthetic 'рф'-style
// registry whose reference names are Cyrillic, attacked by substituting
// visually identical Latin/Greek characters — the inverse of the .com
// attack direction — detected with the Unicode-reference detector.
#include <unordered_set>

#include "bench_common.hpp"
#include "core/browser_policy.hpp"
#include "detect/engine.hpp"
#include "idna/idna.hpp"
#include "util/rng.hpp"

int main() {
  using namespace sham;
  bench::header("Extension: homographs under a Cyrillic TLD ('рф'-style)");
  const auto& env = bench::standard_env();

  util::Rng rng{0xCF};
  // Cyrillic reference corpus.
  std::vector<unicode::U32String> references;
  std::unordered_set<std::string> seen;
  while (references.size() < 400) {
    unicode::U32String label;
    const int n = 4 + static_cast<int>(rng.below(7));
    for (int i = 0; i < n; ++i) {
      label.push_back(0x0430 + static_cast<unicode::CodePoint>(rng.below(32)));
    }
    if (seen.insert(idna::to_a_label(label)).second) references.push_back(label);
  }

  // Plant attacks: substitute one Cyrillic character with a non-Cyrillic
  // homoglyph (Latin/Greek/...), as registered IDN labels.
  std::vector<detect::IdnEntry> idns;
  std::vector<unicode::U32String> planted;
  std::size_t guard = 0;
  while (planted.size() < 300 && guard++ < 10000) {
    const auto& ref = references[rng.below(references.size())];
    const std::size_t pos = rng.below(ref.size());
    const auto homoglyphs = env.db_union.homoglyphs_of(ref[pos]);
    std::vector<unicode::CodePoint> non_cyrillic;
    for (const auto h : homoglyphs) {
      if (h < 0x0400 || h > 0x052F) non_cyrillic.push_back(h);
    }
    if (non_cyrillic.empty()) continue;
    auto label = ref;
    label[pos] = non_cyrillic[rng.below(non_cyrillic.size())];
    const auto ace = idna::to_a_label(label);
    if (!seen.insert(ace).second) continue;
    idns.push_back({ace, label});
    planted.push_back(label);
  }
  // Benign Cyrillic registrations alongside.
  std::size_t benign = 0;
  while (benign < 1000) {
    unicode::U32String label;
    const int n = 4 + static_cast<int>(rng.below(7));
    for (int i = 0; i < n; ++i) {
      label.push_back(0x0430 + static_cast<unicode::CodePoint>(rng.below(32)));
    }
    const auto ace = idna::to_a_label(label);
    if (!seen.insert(ace).second) continue;
    idns.push_back({ace, label});
    ++benign;
  }

  const detect::Engine engine{
      env.db_union,
      {.strategy = detect::Strategy::kSkeleton, .threads = 1, .cache = false}};
  const auto response = engine.detect(
      {.unicode_references = references, .idns = idns});
  const auto& stats = response.stats;
  std::unordered_set<std::size_t> detected;
  for (const auto& m : response.matches) detected.insert(m.idn_index);

  // How would the browser mixed-script policy fare on the same labels?
  std::size_t attacks_flagged_by_browser = 0;
  for (std::size_t i = 0; i < planted.size(); ++i) {
    if (core::mixed_script_policy(idns[i].unicode).decision ==
        core::DisplayDecision::kPunycode) {
      ++attacks_flagged_by_browser;
    }
  }

  util::TextTable t{{"metric", "value"},
                    {util::Align::kLeft, util::Align::kRight}};
  t.add_row({"Cyrillic references", util::with_commas(references.size())});
  t.add_row({"registered labels (attacks + benign)", util::with_commas(idns.size())});
  t.add_row({"planted homographs", util::with_commas(planted.size())});
  t.add_row({"detected by ShamFinder", util::with_commas(detected.size())});
  t.add_row({"attacks flagged by mixed-script browser rule",
             util::with_commas(attacks_flagged_by_browser)});
  t.add_row({"detection time", util::fixed(stats.seconds * 1e3, 2) + " ms"});
  std::printf("%s\n", t.str().c_str());

  std::size_t true_positives = 0;
  for (std::size_t i = 0; i < planted.size(); ++i) {
    if (detected.contains(i)) ++true_positives;
  }
  bench::shape("every planted Cyrillic-TLD homograph detected",
               true_positives == planted.size());
  bench::shape("no benign Cyrillic label misflagged",
               detected.size() == true_positives);
  bench::shape("browser rule also fires here (mixing is the attack vector)",
               attacks_flagged_by_browser == planted.size());
  return 0;
}
