#include "inputs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "db/artifact.hpp"
#include "detect/engine.hpp"
#include "detect/skeleton_index.hpp"
#include "internet/zone_gen.hpp"
#include "unicode/confusables.hpp"

namespace shambench {

namespace fs = std::filesystem;
using namespace sham;

namespace {

/// Bump when the generated inputs change meaning, so old caches are not read.
constexpr int kInputsVersion = 1;
/// Seeds whose inputs stay cached (a 2 M-domain zone is about 125 MB).
constexpr std::size_t kCachedSeeds = 4;

std::string seed_dir(const std::string& root, std::uint64_t seed) {
  return root + "/seed-" + std::to_string(seed) + "-v" + std::to_string(kInputsVersion);
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out{path, std::ios::binary};
  for (const auto& line : lines) out << line << '\n';
  if (!out) throw std::runtime_error{"cannot write " + path};
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Owner labels of the zone's IDN delegations, from the master-file text
/// as it is generated (owners are absolute "<label>.com." names; a
/// delegation's records are consecutive).
class IdnOwnerScanner {
 public:
  void feed(std::string_view text) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      const auto nl = text.find('\n', pos);
      if (nl == std::string_view::npos) {
        carry_.append(text.substr(pos));
        return;
      }
      if (carry_.empty()) {
        line(text.substr(pos, nl - pos));
      } else {
        carry_.append(text.substr(pos, nl - pos));
        line(carry_);
        carry_.clear();
      }
      pos = nl + 1;
    }
  }
  std::vector<std::string> finish() {
    if (!carry_.empty()) line(carry_);
    return std::move(aces_);
  }

 private:
  void line(std::string_view l) {
    const auto owner = l.substr(0, l.find_first_of(" \t"));
    if (owner.rfind("xn--", 0) != 0) return;
    std::string_view label = owner;
    if (label.ends_with(".com.")) {
      label.remove_suffix(5);
    } else if (label.ends_with(".com")) {
      label.remove_suffix(4);
    } else {
      return;
    }
    if (!aces_.empty() && aces_.back() == label) return;
    aces_.emplace_back(label);
  }

  std::string carry_;
  std::vector<std::string> aces_;
};

void sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error{"cannot sync " + path};
  }
  ::close(fd);
}

struct ManifestEntry {
  std::uint64_t fingerprint = 0;
  std::size_t bytes = 0;
};

const char* const kInputFiles[] = {"artifact.db", "zone.com.txt", "refs.txt", "idns.txt",
                                   "attacks.txt"};

void prune_cache(const std::string& root, const std::string& keep) {
  std::vector<fs::directory_entry> dirs;
  for (const auto& entry : fs::directory_iterator{root}) {
    const auto name = entry.path().filename().string();
    if (entry.is_directory() && name.rfind("seed-", 0) == 0 && entry.path() != keep) {
      dirs.push_back(entry);
    }
  }
  if (dirs.size() < kCachedSeeds) return;
  std::sort(dirs.begin(), dirs.end(), [](const auto& a, const auto& b) {
    return a.last_write_time() < b.last_write_time();
  });
  for (std::size_t i = 0; i + kCachedSeeds - 1 < dirs.size(); ++i) {
    fs::remove_all(dirs[i].path());
  }
}

std::map<std::string, ManifestEntry> read_manifest(const std::string& dir,
                                                   std::size_t* glyphs) {
  std::map<std::string, ManifestEntry> entries;
  std::ifstream in{dir + "/manifest.txt"};
  if (!in) throw std::runtime_error{"no input manifest in " + dir};
  std::string kind;
  while (in >> kind) {
    if (kind == "file") {
      std::string name;
      std::string hex;
      ManifestEntry e;
      in >> name >> hex >> e.bytes;
      e.fingerprint = std::stoull(hex, nullptr, 16);
      entries[name] = e;
    } else if (kind == "glyphs") {
      in >> *glyphs;
    } else {
      throw std::runtime_error{"bad input manifest in " + dir};
    }
  }
  return entries;
}

bool cached_inputs_complete(const std::string& dir) {
  try {
    std::size_t glyphs = 0;
    const auto manifest = read_manifest(dir, &glyphs);
    for (const char* name : kInputFiles) {
      const auto it = manifest.find(name);
      const auto path = dir + "/" + name;
      if (it == manifest.end() || !fs::exists(path) ||
          fs::file_size(path) != it->second.bytes) {
        return false;
      }
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

font::PaperFont make_font(std::uint64_t seed) {
  return font::make_paper_font({.seed = seed, .scale = kFontScale});
}

Databases build_databases(const font::FontSource& font, BuildTimes& times,
                          Tracer* tracer, std::uint64_t parent) {
  simchar::SimCharDb simchar_db;
  {
    ScopedSpan span{tracer, "simchar.build", parent};
    simchar_db = simchar::SimCharDb::build(font, {}, &times.stats);
  }
  std::optional<homoglyph::HomoglyphDb> db;
  {
    ScopedSpan span{tracer, "homoglyph.build", parent};
    db.emplace(simchar_db, unicode::ConfusablesDb::embedded());
  }
  return {std::move(simchar_db), std::move(*db)};
}

void write_artifact(const font::FontSource& font, const Databases& dbs,
                    std::span<const std::string> references, const std::string& path,
                    BuildTimes& times, Tracer* tracer, std::uint64_t parent) {
  db::WriteRequest request;
  request.simchar = &dbs.simchar;
  request.homoglyph = &dbs.homoglyph;

  db::SkeletonFlat skeleton;
  {
    ScopedSpan span{tracer, "detect.ref_index", parent};
    const detect::SkeletonIndex index{
        dbs.homoglyph, references,
        {.max_bucket_occupancy = detect::EngineOptions{}.skeleton_bucket_cap}};
    skeleton = index.to_flat();
  }
  request.references = references;
  request.reference_fingerprint = detect::label_set_fingerprint(references);
  request.skeleton = &skeleton;

  std::optional<simchar::RepertoirePanel> panel;
  {
    ScopedSpan span{tracer, "simchar.panel", parent};
    panel = simchar::render_repertoire_panel(font, simchar::BuildOptions{});
  }
  times.panel_glyphs = panel->cps.size();
  request.panel = &panel->panel;
  request.glyph_cps = panel->cps;
  request.glyph_popcounts = panel->popcounts;

  ScopedSpan span{tracer, "db.write", parent};
  db::write_db_file(path, request);
}

std::string prepare_inputs(const std::string& root, std::uint64_t seed) {
  const auto dir = seed_dir(root, seed);
  fs::create_directories(root);
  if (cached_inputs_complete(dir)) {
    fs::last_write_time(dir, fs::file_time_type::clock::now());
    return dir;
  }
  prune_cache(root, dir);
  fs::remove_all(dir);
  const auto tmp = dir + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);

  const auto paper = make_font(seed);
  BuildTimes times;
  const auto dbs = build_databases(*paper.font, times);

  internet::ScenarioConfig config;
  config.seed = seed;
  config.total_domains = kZoneDomains;
  config.reference_count = kReferences;
  internet::ZoneTextStream stream{dbs.homoglyph, config, {.which = 0, .tld = "com"}};
  IdnOwnerScanner scanner;
  {
    std::ofstream zone{tmp + "/zone.com.txt", std::ios::binary};
    std::string chunk;
    while (stream.next_chunk(chunk)) {
      zone.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      scanner.feed(chunk);
    }
    if (!zone) throw std::runtime_error{"cannot write the zone file"};
  }
  // Flush the zone to disk now, so its writeback does not run during the
  // timed runs that follow.
  sync_file(tmp + "/zone.com.txt");
  const auto& core = stream.core();
  write_lines(tmp + "/refs.txt", core.references);
  write_lines(tmp + "/idns.txt", scanner.finish());
  std::vector<std::string> attacks;
  attacks.reserve(core.attacks.size());
  for (const auto& a : core.attacks) attacks.push_back(a.ace + " " + a.target);
  write_lines(tmp + "/attacks.txt", attacks);

  write_artifact(*paper.font, dbs, core.references, tmp + "/artifact.db", times);

  {
    std::ofstream manifest{tmp + "/manifest.txt"};
    manifest << "glyphs " << paper.font->coverage().size() << '\n';
    for (const char* name : kInputFiles) {
      const auto path = tmp + "/" + name;
      manifest << "file " << name << ' ' << hex64(file_fingerprint(path)) << ' '
               << fs::file_size(path) << '\n';
    }
    if (!manifest) throw std::runtime_error{"cannot write the input manifest"};
  }
  fs::rename(tmp, dir);
  return dir;
}

Inputs load_inputs(const std::string& root, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.dir = seed_dir(root, seed);
  const auto manifest = read_manifest(in.dir, &in.glyphs);
  for (const char* name : kInputFiles) {
    const auto path = in.dir + "/" + name;
    const auto it = manifest.find(name);
    if (it == manifest.end()) throw std::runtime_error{std::string{"manifest lacks "} + name};
    const auto fingerprint = file_fingerprint(path);
    if (fingerprint != it->second.fingerprint || fs::file_size(path) != it->second.bytes) {
      throw std::runtime_error{"input " + path + " does not match its fingerprint " +
                               hex64(it->second.fingerprint)};
    }
  }
  in.artifact_path = in.dir + "/artifact.db";
  in.zone_path = in.dir + "/zone.com.txt";
  in.artifact_bytes = manifest.at("artifact.db").bytes;
  in.zone_bytes = manifest.at("zone.com.txt").bytes;
  in.artifact_fingerprint = manifest.at("artifact.db").fingerprint;
  in.zone_fingerprint = manifest.at("zone.com.txt").fingerprint;
  in.references = read_lines(in.dir + "/refs.txt");
  in.idn_aces = read_lines(in.dir + "/idns.txt");
  for (const auto& line : read_lines(in.dir + "/attacks.txt")) {
    const auto space = line.find(' ');
    if (space == std::string::npos) throw std::runtime_error{"bad attacks.txt line"};
    in.attacks.push_back({line.substr(0, space), line.substr(space + 1)});
  }
  if (in.references.size() != kReferences || in.idn_aces.empty()) {
    throw std::runtime_error{"inputs in " + in.dir + " have unexpected sizes"};
  }
  return in;
}

}  // namespace shambench
