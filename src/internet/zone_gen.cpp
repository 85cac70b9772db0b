#include "internet/zone_gen.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "dns/zone_file.hpp"

namespace sham::internet {

ZoneTextStream::ZoneTextStream(const homoglyph::HomoglyphDb& db,
                               const ScenarioConfig& config, ZoneGenOptions options)
    : ZoneTextStream{std::make_shared<const ScenarioCore>(build_scenario_core(db, config)),
                     std::move(options), 0, std::numeric_limits<std::size_t>::max()} {}

ZoneTextStream::ZoneTextStream(std::shared_ptr<const ScenarioCore> core,
                               ZoneGenOptions options, std::size_t first,
                               std::size_t last)
    : core_{std::move(core)}, options_{std::move(options)} {
  if (options_.which < 0 || options_.which > 2) {
    throw std::invalid_argument{"ZoneTextStream: which must be 0, 1, or 2"};
  }
  end_ = std::min(last, core_->population());
  first_ = std::min(first, end_);
  cursor_ = first_;
  // The header is produced by the same serializer the materialized path
  // uses, over a record-less Zone — byte identity by construction. It is
  // validated on every stream, emitted only by the one starting the zone.
  dns::Zone head;
  head.origin = dns::DomainName::parse_or_throw(options_.tld);
  head.default_ttl = 172800;  // matches scenario_to_zone
  if (first == 0) header_ = dns::serialize_zone(head);
}

void ZoneTextStream::append_domain(std::size_t index, std::string& out) {
  const std::size_t n_refs = core_->references.size();
  const std::size_t n_attacks = core_->attacks.size();
  const std::string* sld = nullptr;
  std::string benign_sld;
  bool benign = false;
  std::string filler_sld;
  if (index < n_refs) {
    sld = &core_->references[index];
  } else if (index < n_refs + n_attacks) {
    sld = &core_->attacks[index - n_refs].ace;
  } else if (index < core_->head_count()) {
    benign_sld = benign_idn_at(*core_, index - n_refs - n_attacks).ace;
    sld = &benign_sld;
    benign = true;
  } else {
    filler_sld = filler_label_at(*core_, index);
    sld = &filler_sld;
  }

  const auto domain = dns::DomainName::parse(*sld + ".com");
  if (!domain) return;  // mirrors scenario_to_zone's skip

  const HostState* host = nullptr;
  HostState benign_state;
  if (core_->config.build_world) {
    host = core_->head_world.lookup(*domain);
    if (host == nullptr && benign) {
      // Keep-first: an ACE colliding with an attack (or an earlier
      // duplicate benign sample, same pure-function state) resolved to
      // the head-world entry above; fresh benign names get their
      // ACE-keyed state here.
      benign_state = benign_host_for(*core_, *sld);
      host = &benign_state;
    }
  }

  scratch_.clear();
  append_domain_records(*domain, host, options_.tld, scratch_);
  for (const auto& record : scratch_) out += dns::serialize_record(record);
  stats_.records += scratch_.size();
  ++stats_.domains_emitted;
}

bool ZoneTextStream::next_chunk(std::string& out) {
  out.clear();
  const std::size_t target = std::max<std::size_t>(1, options_.chunk_bytes);
  const std::size_t start_cursor = cursor_;
  const bool had_header = !header_.empty();
  if (had_header) {
    out += header_;
    header_.clear();
  }
  while (out.size() < target && cursor_ < end_) {
    const std::size_t index = cursor_++;
    ++stats_.domains_considered;
    if (options_.which != 2) {
      const auto m = membership_at(*core_, index);
      if (!(options_.which == 0 ? m.zone : m.domainlists)) continue;
    }
    append_domain(index, out);
  }
  stats_.bytes += out.size();
  // Progress (indices consumed or the header), not bytes, signals "more":
  // a tail of non-members or record-less delegations can legally produce
  // an empty final chunk.
  return had_header || cursor_ != start_cursor;
}

std::string generate_zone_text(const homoglyph::HomoglyphDb& db,
                               const ScenarioConfig& config,
                               const ZoneGenOptions& options) {
  ZoneTextStream stream{db, config, options};
  std::string text;
  std::string chunk;
  while (stream.next_chunk(chunk)) text += chunk;
  return text;
}

}  // namespace sham::internet
