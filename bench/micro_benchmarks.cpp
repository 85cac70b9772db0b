// Google-benchmark micro benches for the hot paths: the ∆ metric (the
// inner loop of SimChar's 1.4-billion-pair Step II), the glyph store and
// block index under Steps I–II, Punycode transcoding, homoglyph-DB
// lookups, Algorithm 1's per-pair matcher, and zone parsing.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "detect/detector.hpp"
#include "detect/engine.hpp"
#include "dns/domain.hpp"
#include "dns/zone_file.hpp"
#include "dns/zone_stream.hpp"
#include "font/metrics.hpp"
#include "font/paper_font.hpp"
#include "idna/idna.hpp"
#include "idna/punycode.hpp"
#include "measure/environment.hpp"
#include "simchar/simchar.hpp"
#include "unicode/idna_properties.hpp"
#include "unicode/utf8.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sham;

const measure::Environment& env() {
  static const auto instance = [] {
    measure::EnvironmentConfig config;
    config.font_scale = 0.25;
    return measure::Environment::create(config);
  }();
  return instance;
}

font::GlyphBitmap random_glyph(std::uint64_t seed) {
  util::Rng rng{seed};
  font::GlyphBitmap g;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      if (rng.bernoulli(0.22)) g.set(x, y);
    }
  }
  return g;
}

void BM_DeltaExact(benchmark::State& state) {
  const auto a = random_glyph(1);
  const auto b = random_glyph(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(font::delta(a, b));
  }
}
BENCHMARK(BM_DeltaExact);

void BM_DeltaBoundedFarPair(benchmark::State& state) {
  const auto a = random_glyph(1);
  const auto b = random_glyph(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(font::delta_bounded(a, b, 4));
  }
}
BENCHMARK(BM_DeltaBoundedFarPair);

void BM_DeltaBoundedNearPair(benchmark::State& state) {
  const auto a = random_glyph(1);
  auto b = a;
  b.flip(3, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(font::delta_bounded(a, b, 4));
  }
}
BENCHMARK(BM_DeltaBoundedNearPair);

void BM_Ssim(benchmark::State& state) {
  const auto a = random_glyph(1);
  const auto b = random_glyph(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(font::ssim(a, b));
  }
}
BENCHMARK(BM_Ssim);

void BM_SimCharBuild(benchmark::State& state) {
  font::PaperFontConfig config;
  config.scale = static_cast<double>(state.range(0)) / 100.0;
  const auto paper = font::make_paper_font(config);
  simchar::BuildOptions options;
  options.pair_strategy = state.range(1) != 0 ? simchar::PairStrategy::kBlockIndex
                                              : simchar::PairStrategy::kAllPairs;
  std::size_t glyphs = 0;
  for (auto _ : state) {
    simchar::BuildStats stats;
    benchmark::DoNotOptimize(simchar::SimCharDb::build(*paper.font, options, &stats));
    glyphs = stats.glyphs_rendered;
  }
  state.counters["glyphs"] = static_cast<double>(glyphs);
}
BENCHMARK(BM_SimCharBuild)
    ->Args({10, 1})
    ->Args({25, 1})
    ->Args({50, 1})
    ->Args({25, 0})
    ->Unit(benchmark::kMillisecond);

/// The default (scale 1.0) paper font: 13,028 glyphs, built once.
const font::PaperFont& paper_font() {
  static const auto instance = font::make_paper_font({});
  return instance;
}

/// Step I's font reads: coverage() plus every covered glyph().
void BM_FontCoverageAndGlyphs(benchmark::State& state) {
  const auto& font = *paper_font().font;
  std::size_t glyphs = 0;
  for (auto _ : state) {
    const auto coverage = font.coverage();
    std::uint64_t ink = 0;
    for (const auto cp : coverage) ink += font.glyph(cp)->words()[8];
    benchmark::DoNotOptimize(ink);
    glyphs = coverage.size();
  }
  state.counters["glyphs"] = static_cast<double>(glyphs);
}
BENCHMARK(BM_FontCoverageAndGlyphs)->Unit(benchmark::kMillisecond);

/// Step II's index build: the PairMiner constructor (θ + 1 = 5 block
/// tables) over the rendered repertoire of the same font.
void BM_PairMinerBuild(benchmark::State& state) {
  const auto& font = *paper_font().font;
  std::vector<simchar::MinerGlyph> glyphs;
  for (const auto cp : font.coverage()) {
    if (!unicode::is_idna_permitted(cp)) continue;
    if (const auto g = font.glyph(cp)) glyphs.push_back({cp, *g, g->popcount()});
  }
  util::ThreadPool pool;
  for (auto _ : state) {
    const simchar::PairMiner miner{glyphs, 4, simchar::PairStrategy::kBlockIndex, pool};
    benchmark::DoNotOptimize(&miner);
  }
  state.counters["glyphs"] = static_cast<double>(glyphs.size());
}
BENCHMARK(BM_PairMinerBuild)->Unit(benchmark::kMillisecond);

void BM_PunycodeEncode(benchmark::State& state) {
  const unicode::U32String label{0x963F, 0x91CC, 0x5DF4, 0x5DF4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(idna::punycode_encode(label));
  }
}
BENCHMARK(BM_PunycodeEncode);

void BM_PunycodeDecode(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(idna::punycode_decode("tsta8290bfzd"));
  }
}
BENCHMARK(BM_PunycodeDecode);

void BM_DbLookup(benchmark::State& state) {
  const auto& db = env().db_union;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.are_homoglyphs('o', 0x00F6));
    benchmark::DoNotOptimize(db.are_homoglyphs('o', 0x4E00));
  }
}
BENCHMARK(BM_DbLookup);

void BM_MatchPair(benchmark::State& state) {
  const detect::HomographDetector detector{env().db_union};
  const unicode::U32String idn{'g', 0x043E, 0x043E, 'g', 'l', 'e'};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.match_pair("google", idn));
  }
}
BENCHMARK(BM_MatchPair);

void BM_ExtractIdnPredicate(benchmark::State& state) {
  const std::string ace = "xn--ggle-55da.com";
  const std::string plain = "example.com";
  for (auto _ : state) {
    benchmark::DoNotOptimize(idna::is_idn(ace));
    benchmark::DoNotOptimize(idna::is_idn(plain));
  }
}
BENCHMARK(BM_ExtractIdnPredicate);

void BM_DetectUnicodeRefs(benchmark::State& state) {
  const detect::Engine engine{
      env().db_union,
      {.strategy = detect::Strategy::kSkeleton, .threads = 1, .cache = false}};
  std::vector<unicode::U32String> refs;
  util::Rng rng{9};
  for (int i = 0; i < 100; ++i) {
    unicode::U32String label;
    for (int j = 0; j < 6; ++j) {
      label.push_back(0x0430 + static_cast<unicode::CodePoint>(rng.below(32)));
    }
    refs.push_back(label);
  }
  std::vector<detect::IdnEntry> idns;
  for (int i = 0; i < 500; ++i) {
    auto label = refs[rng.below(refs.size())];
    label[rng.below(label.size())] = 'a' + static_cast<unicode::CodePoint>(rng.below(26));
    idns.push_back({idna::to_a_label(label), label});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.detect({.unicode_references = refs, .idns = idns}));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_DetectUnicodeRefs)->Unit(benchmark::kMicrosecond);

void BM_IncrementalUpdate(benchmark::State& state) {
  font::PaperFontConfig config;
  config.scale = 0.25;
  const auto paper = font::make_paper_font(config);
  const auto existing = simchar::SimCharDb::build(*paper.font);
  // "New" characters: a slice of the covered repertoire re-checked.
  std::vector<unicode::CodePoint> added;
  const auto coverage = paper.font->coverage();
  for (std::size_t i = 0; i < coverage.size() && added.size() < 500; i += 7) {
    added.push_back(coverage[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simchar::update_with_new_characters(existing, *paper.font, added));
  }
  state.counters["added"] = static_cast<double>(added.size());
}
BENCHMARK(BM_IncrementalUpdate)->Unit(benchmark::kMillisecond);

void BM_RevertToAscii(benchmark::State& state) {
  const auto& db = env().db_union;
  const unicode::U32String label{'g', 0x043E, 0x043E, 'g', 'l', 0x0435};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.revert_to_ascii(label));
  }
}
BENCHMARK(BM_RevertToAscii);

void BM_SkeletonBaseline(benchmark::State& state) {
  const auto& uc = unicode::ConfusablesDb::embedded();
  const unicode::U32String label{'g', 0x043E, 0x043E, 'g', 'l', 0x0435};
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc.skeleton(label));
  }
}
BENCHMARK(BM_SkeletonBaseline);

void BM_ZoneParse(benchmark::State& state) {
  std::string zone = "$ORIGIN com.\n$TTL 86400\n";
  for (int i = 0; i < 1000; ++i) {
    zone += "domain-" + std::to_string(i) + " IN NS ns1.hoster.net.\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::parse_zone(zone));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ZoneParse)->Unit(benchmark::kMillisecond);

/// Lines shaped like the seed zones' delegations: absolute owner, TTL, IN,
/// NS target.
std::string generator_shaped_zone(std::size_t lines) {
  util::Rng rng{17};
  std::string zone = "$ORIGIN com.\n$TTL 172800\n";
  for (std::size_t i = 0; i < lines; ++i) {
    zone += "domain-" + std::to_string(rng.below(10'000'000)) + ".com. 86400 IN NS ns1.hosting-" +
            std::to_string(rng.below(4096)) + ".net.\n";
  }
  return zone;
}

// The per-record cost of ZoneStreamReader::feed, in two shapes: the whole
// text in one feed (argument 0), as a zone slice feeds its mapped range,
// and 64 KiB chunks, as perfbench's traced pass feeds the reader.
// per_record is the time per record.
void BM_ZoneStreamRecord(benchmark::State& state) {
  const std::string zone = generator_shaped_zone(20'000);
  const auto chunk = state.range(0) == 0 ? zone.size() : static_cast<std::size_t>(state.range(0));
  std::size_t records = 0;
  for (auto _ : state) {
    dns::ZoneStreamReader reader{[&](const dns::ResourceRecord& r) {
      benchmark::DoNotOptimize(r.target.data());
      ++records;
    }};
    for (std::string_view rest = zone; !rest.empty();) {
      const auto take = std::min(chunk, rest.size());
      reader.feed(rest.substr(0, take));
      rest.remove_prefix(take);
    }
    reader.finish();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ZoneStreamRecord)->Arg(0)->Arg(64 * 1024)->Unit(benchmark::kMillisecond);

// One name through the zone reader's rule set (resolve already done):
// generator-shaped owners and NS targets, mixed case. Time = ns/name.
void BM_DomainNormalize(benchmark::State& state) {
  util::Rng rng{19};
  std::vector<std::string> names;
  for (int i = 0; i < 1024; ++i) {
    names.push_back(i % 2 == 0 ? "Domain-" + std::to_string(rng.below(10'000'000)) + ".com"
                               : "ns1.hosting-" + std::to_string(rng.below(4096)) + ".NET");
  }
  std::string out;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DomainName::normalize(out, names[next++ % names.size()]));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DomainNormalize);

void BM_Utf8Decode(benchmark::State& state) {
  const std::string text = "g\xD0\xBE\xD0\xBEgle-\xE4\xB8\xAD\xE6\x96\x87";
  for (auto _ : state) {
    benchmark::DoNotOptimize(unicode::decode_utf8(text));
  }
}
BENCHMARK(BM_Utf8Decode);

}  // namespace

BENCHMARK_MAIN();
