#include "measure/wild_experiments.hpp"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "core/shamfinder.hpp"
#include "detect/engine.hpp"
#include "dns/langid.hpp"
#include "idna/idna.hpp"
#include "unicode/utf8.hpp"

namespace sham::measure {

namespace {

std::vector<std::size_t> unique_idn_indices(const std::vector<detect::Match>& matches) {
  std::unordered_set<std::size_t> seen;
  for (const auto& m : matches) seen.insert(m.idn_index);
  std::vector<std::size_t> out{seen.begin(), seen.end()};
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

dns::DomainName WildContext::idn_domain(std::size_t idn_index) const {
  return dns::DomainName::parse_or_throw(idns[idn_index].ace + ".com");
}

WildContext make_wild_context(const Environment& env,
                              const internet::ScenarioConfig& config) {
  WildContext ctx;
  ctx.scenario = internet::generate_scenario(env.db_union, config);
  ctx.idns = core::ShamFinder::extract_idns(ctx.scenario.domains, "com");

  // One-shot engines per database flavour (each is queried once, so
  // caching would only hold memory).
  const detect::EngineOptions opts{.cache = false};
  const detect::DetectRequest request{.references = ctx.scenario.references,
                                      .idns = ctx.idns};
  const detect::Engine eng_uc{env.db_uc, opts};
  const detect::Engine eng_sim{env.db_sim, opts};
  const detect::Engine eng_union{env.db_union, opts};

  ctx.detected_uc = unique_idn_indices(eng_uc.detect(request).matches);
  ctx.detected_sim = unique_idn_indices(eng_sim.detect(request).matches);
  ctx.union_matches = eng_union.detect(request).matches;
  ctx.detected_union = unique_idn_indices(ctx.union_matches);
  return ctx;
}

std::vector<DatasetRow> dataset_statistics(const internet::Scenario& s) {
  const auto count_idns = [&](const std::vector<std::uint32_t>& index) {
    std::size_t n = 0;
    for (const auto i : index) {
      if (idna::is_idn(s.domains[i])) ++n;
    }
    return n;
  };
  std::size_t union_idns = 0;
  for (const auto& d : s.domains) {
    if (idna::is_idn(d)) ++union_idns;
  }
  return {
      {"zone file", s.zone_index.size(), count_idns(s.zone_index)},
      {"domainlists.io", s.domainlists_index.size(), count_idns(s.domainlists_index)},
      {"Total (union)", s.domains.size(), union_idns},
  };
}

std::vector<LanguageRow> idn_languages(const WildContext& ctx, std::size_t top_n) {
  std::map<std::string, std::size_t> counts;
  for (const auto& idn : ctx.idns) {
    counts[std::string{dns::language_name(dns::classify_language(idn.unicode))}]++;
  }
  std::vector<LanguageRow> rows;
  for (const auto& [name, count] : counts) {
    rows.push_back({name, count,
                    static_cast<double>(count) / static_cast<double>(ctx.idns.size())});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.count > b.count; });
  if (rows.size() > top_n) rows.resize(top_n);
  return rows;
}

DetectionCounts detection_counts(const WildContext& ctx) {
  DetectionCounts c;
  c.uc = ctx.detected_uc.size();
  c.simchar = ctx.detected_sim.size();
  c.union_all = ctx.detected_union.size();
  c.planted = ctx.scenario.attacks.size();

  std::unordered_set<std::string> planted_aces;
  for (const auto& a : ctx.scenario.attacks) planted_aces.insert(a.ace);
  for (const auto idx : ctx.detected_union) {
    if (planted_aces.contains(ctx.idns[idx].ace)) {
      ++c.true_positives;
    } else {
      ++c.extra_detections;
    }
  }
  c.false_negatives = c.planted - c.true_positives;
  return c;
}

std::vector<TargetRow> top_targets(const WildContext& ctx, std::size_t top_n) {
  std::map<std::size_t, std::unordered_set<std::size_t>> per_ref;  // ref -> IDN set
  for (const auto& m : ctx.union_matches) {
    per_ref[m.reference_index].insert(m.idn_index);
  }
  std::vector<TargetRow> rows;
  for (const auto& [ref, idns] : per_ref) {
    rows.push_back({ctx.scenario.references[ref], idns.size()});
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.homographs != b.homographs ? a.homographs > b.homographs
                                        : a.reference < b.reference;
  });
  if (rows.size() > top_n) rows.resize(top_n);
  return rows;
}

PortScanFunnel port_scan_funnel(const WildContext& ctx) {
  PortScanFunnel f;
  f.detected = ctx.detected_union.size();
  const internet::PortScanner scanner{ctx.scenario.world};
  for (const auto idx : ctx.detected_union) {
    const auto domain = ctx.idn_domain(idx);
    const auto* host = ctx.scenario.world.lookup(domain);
    if (host == nullptr || !host->has_ns) continue;
    ++f.with_ns;
    if (!host->has_a) continue;
    ++f.with_a;
    const auto scan = scanner.scan(domain);
    if (scan.tcp80) ++f.open_80;
    if (scan.tcp443) ++f.open_443;
    if (scan.tcp80 && scan.tcp443) ++f.open_both;
    if (scan.any()) ++f.active;
  }
  return f;
}

std::vector<PopularIdnRow> popular_active_idns(const WildContext& ctx,
                                               std::size_t top_n) {
  const internet::PortScanner scanner{ctx.scenario.world};
  const internet::PassiveDns pdns{ctx.scenario.world};
  std::vector<PopularIdnRow> rows;
  for (const auto idx : ctx.detected_union) {
    const auto domain = ctx.idn_domain(idx);
    if (!scanner.scan(domain).any()) continue;
    const auto* host = ctx.scenario.world.lookup(domain);
    if (host == nullptr) continue;
    PopularIdnRow row;
    row.display = unicode::to_utf8(ctx.idns[idx].unicode);
    row.ace = ctx.idns[idx].ace;
    row.category = host->site_label.empty()
                       ? std::string{internet::website_kind_name(host->website)}
                       : host->site_label;
    row.resolutions = pdns.resolutions(domain);
    row.mx_now = host->has_mx;
    row.mx_past = host->had_mx;
    row.web_link = host->web_link;
    row.sns_link = host->sns_link;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.resolutions > b.resolutions; });
  if (rows.size() > top_n) rows.resize(top_n);
  return rows;
}

std::vector<ClassificationRow> classify_active(const WildContext& ctx) {
  const internet::PortScanner scanner{ctx.scenario.world};
  const internet::WebClassifier classifier{ctx.scenario.world};
  std::map<std::string, std::size_t> counts;
  std::size_t total = 0;
  for (const auto idx : ctx.detected_union) {
    const auto domain = ctx.idn_domain(idx);
    if (!scanner.scan(domain).any()) continue;
    const auto site = classifier.classify(domain);
    counts[std::string{internet::website_kind_name(site.kind)}]++;
    ++total;
  }
  std::vector<ClassificationRow> rows;
  for (const auto& [name, count] : counts) rows.push_back({name, count});
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.count > b.count; });
  rows.push_back({"Total", total});
  return rows;
}

std::vector<ClassificationRow> classify_redirects(const WildContext& ctx) {
  const internet::PortScanner scanner{ctx.scenario.world};
  const internet::WebClassifier classifier{ctx.scenario.world};
  const internet::BlacklistService blacklists{ctx.scenario.world};

  // The matched reference per detected IDN (needed to recognise defensive
  // registrations: a homograph redirecting to its own original).
  std::unordered_map<std::size_t, std::size_t> ref_of;
  for (const auto& m : ctx.union_matches) ref_of.emplace(m.idn_index, m.reference_index);

  std::map<std::string, std::size_t> counts;
  std::size_t total = 0;
  for (const auto idx : ctx.detected_union) {
    const auto domain = ctx.idn_domain(idx);
    if (!scanner.scan(domain).any()) continue;
    const auto site = classifier.classify(domain);
    if (site.kind != internet::WebsiteKind::kRedirect) continue;
    ++total;

    // Infer the redirect purpose from evidence (the paper used VirusTotal
    // plus manual screenshot inspection):
    //  * landing on the matched original => brand protection;
    //  * blacklisted landing domain      => malicious;
    //  * anything else                   => legitimate.
    std::string kind = "Legitimate website";
    const auto ref_it = ref_of.find(idx);
    if (ref_it != ref_of.end() &&
        site.redirect_target == ctx.scenario.references[ref_it->second] + ".com") {
      kind = "Brand protection";
    } else if (const auto target = dns::DomainName::parse(site.redirect_target);
               target && blacklists.feeds(*target) != 0) {
      kind = "Malicious website";
    }
    counts[kind]++;
  }
  std::vector<ClassificationRow> rows;
  for (const auto& [name, count] : counts) rows.push_back({name, count});
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.count > b.count; });
  rows.push_back({"Total", total});
  return rows;
}

std::vector<BlacklistRow> blacklist_counts(const WildContext& ctx) {
  const internet::BlacklistService blacklists{ctx.scenario.world};
  const auto count_for = [&](const std::vector<std::size_t>& detected) {
    BlacklistRow row;
    for (const auto idx : detected) {
      const auto domain = ctx.idn_domain(idx);
      if (blacklists.listed(domain, internet::BlacklistFeed::kHpHosts)) ++row.hphosts;
      if (blacklists.listed(domain, internet::BlacklistFeed::kGsb)) ++row.gsb;
      if (blacklists.listed(domain, internet::BlacklistFeed::kSymantec)) ++row.symantec;
    }
    return row;
  };
  auto uc = count_for(ctx.detected_uc);
  uc.db = "UC";
  auto sim = count_for(ctx.detected_sim);
  sim.db = "SimChar";
  auto both = count_for(ctx.detected_union);
  both.db = "UC + SimChar";
  return {uc, sim, both};
}

RevertResult revert_analysis(const Environment& env, const WildContext& ctx,
                             std::size_t alexa_cutoff) {
  RevertResult result;
  const internet::BlacklistService blacklists{ctx.scenario.world};
  std::unordered_set<std::string> popular;
  for (std::size_t i = 0; i < ctx.scenario.references.size() && i < alexa_cutoff; ++i) {
    popular.insert(ctx.scenario.references[i]);
  }
  for (const auto idx : ctx.detected_union) {
    const auto domain = ctx.idn_domain(idx);
    if (blacklists.feeds(domain) == 0) continue;
    ++result.malicious;
    const auto reverted = env.db_union.revert_to_ascii(ctx.idns[idx].unicode);
    if (!reverted) continue;
    ++result.reverted;
    std::string original;
    for (const auto cp : *reverted) original += static_cast<char>(cp);
    if (!popular.contains(original)) {
      ++result.non_popular_targets;
      if (result.examples.size() < 10) {
        result.examples.push_back(ctx.idns[idx].ace + " -> " + original);
      }
    }
  }
  return result;
}

}  // namespace sham::measure
