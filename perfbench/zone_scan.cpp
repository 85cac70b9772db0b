// zone_scan: the paper's Section 5 measurement. The seeded 2 M-domain .com
// zone is scanned by measure::run_fleet exactly as
//   shamfinder_cli scale-run --db-file <artifact> --zone com:<zone> --shards 4
// runs it (kSkeleton, default EngineOptions, 4096-entry batches).
//
// run_fleet hides its stages, so the traced run makes the same public
// calls in the same arrangement itself — chunk reads, ZoneStreamReader,
// ShamFinder::extract_idns, a bounded batch queue, four Engine::detect
// workers, canonicalize_matches / merge_outcomes — with a span around
// each, and must reproduce the untraced verdict fingerprint.
#include <algorithm>
#include <exception>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include "core/shamfinder.hpp"
#include "db/artifact.hpp"
#include "detect/engine.hpp"
#include "dns/zone_stream.hpp"
#include "idna/idna.hpp"
#include "measure/scale_run.hpp"
#include "workloads.hpp"

namespace shambench {

using namespace sham;

namespace {

constexpr std::size_t kShards = 4;
// run_fleet's defaults, which `scale-run` keeps.
const std::size_t kBatch = measure::FleetOptions{}.batch_size;
const std::size_t kQueueBatches = measure::FleetOptions{}.queue_batches;
const detect::Strategy kStrategy = measure::FleetOptions{}.strategy;
constexpr int kMinPasses = 3;

measure::FleetOptions fleet_options(const Inputs& in, std::size_t shards) {
  measure::FleetOptions options;
  options.db_file = in.artifact_path;
  measure::FleetZone zone;
  zone.tld = "com";
  zone.zone_path = in.zone_path;
  options.zones.push_back(std::move(zone));
  options.shards = shards;
  return options;
}

struct FleetPass {
  double seconds = 0.0;
  std::size_t domains = 0;
  std::size_t batches = 0;
  std::uint64_t fingerprint = 0;
  std::size_t matches = 0;
  std::string error;
};

FleetPass fleet_pass(const measure::FleetOptions& options) {
  FleetPass pass;
  const auto t0 = Clock::now();
  const auto report = measure::run_fleet(options);
  pass.seconds = seconds_between(t0, Clock::now());
  const auto& zone = report.zones.at(0);
  pass.domains = zone.stream.domains;
  pass.batches = zone.stream.batches;
  pass.fingerprint = zone.verdict_fingerprint;
  pass.matches = zone.matches;
  pass.error = zone.error;
  return pass;
}

/// Fleet passes until `seconds` have elapsed (at least kMinPasses).
std::vector<FleetPass> fleet_passes(const measure::FleetOptions& options, double seconds) {
  std::vector<FleetPass> passes;
  const auto start = Clock::now();
  while (passes.size() < static_cast<std::size_t>(kMinPasses) ||
         seconds_between(start, Clock::now()) < seconds) {
    passes.push_back(fleet_pass(options));
  }
  return passes;
}

std::vector<double> rates(const std::vector<FleetPass>& passes) {
  std::vector<double> out;
  for (const auto& p : passes) out.push_back(static_cast<double>(p.domains) / p.seconds);
  return out;
}

/// Counts and outcome of one traced pipeline pass.
struct TracedPass {
  measure::DetectionOutcome outcome;
  double seconds = 0.0;
  std::size_t bytes = 0;
  std::size_t records = 0;
  std::size_t owners = 0;
  std::size_t ace_owners = 0;  // owners whose label starts "xn--"
  std::size_t idns = 0;
  std::size_t batches = 0;
  std::uint64_t candidates = 0;
  std::size_t threads_used = 0;
};

TracedPass traced_pass(const detect::Engine& engine, std::span<const std::string> refs,
                       const std::string& zone_path, Tracer& tracer) {
  TracedPass out;
  const auto t0 = Clock::now();
  ScopedSpan pass{&tracer, "zone_scan.pass"};
  const auto root = pass.id();

  using Batch = std::pair<std::uint64_t, std::vector<detect::IdnEntry>>;
  BoundedQueue<Batch> queue{kQueueBatches};
  std::vector<std::vector<measure::DetectionOutcome>> parts(kShards);
  std::vector<std::uint64_t> candidates(kShards, 0);
  std::vector<std::size_t> threads_used(kShards, 0);
  std::vector<std::exception_ptr> worker_errors(kShards);

  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < kShards; ++k) {
    workers.emplace_back([&, k] {
      Batch item;
      while (true) {
        bool got = false;
        {
          ScopedSpan wait{&tracer, "measure.wait", root};
          got = queue.pop(item);
        }
        if (!got) break;
        if (worker_errors[k]) continue;  // keep draining so the producer never blocks
        try {
          detect::DetectResponse response;
          {
            ScopedSpan span{&tracer, "detect.batch", root, item.first};
            response = engine.detect(
                {.references = refs, .idns = item.second, .strategy = kStrategy});
          }
          candidates[k] += response.stats.length_bucket_hits;
          threads_used[k] = std::max(threads_used[k], response.stats.threads_used);
          ScopedSpan span{&tracer, "measure.merge", root, item.first};
          parts[k].push_back(measure::canonicalize_matches(response.matches, item.second));
        } catch (...) {
          worker_errors[k] = std::current_exception();
        }
      }
    });
  }

  std::exception_ptr produce_error;
  try {
    std::ifstream file{zone_path, std::ios::binary};
    if (!file) throw std::runtime_error{"cannot open " + zone_path};
    std::vector<std::string> pending;
    std::string last_owner;
    std::vector<detect::IdnEntry> batch;
    std::uint64_t batch_id = 0;
    // Consecutive-owner dedup, as run_fleet's batcher does it.
    dns::ZoneStreamReader reader{[&](const dns::ResourceRecord& record) {
      ++out.records;
      auto owner = record.owner.str();
      if (owner == last_owner) return;
      last_owner = std::move(owner);
      ++out.owners;
      if (last_owner.rfind("xn--", 0) == 0) ++out.ace_owners;
      pending.push_back(last_owner);
    }};
    const auto deliver = [&] {
      if (batch.empty()) return;
      out.idns += batch.size();
      ++out.batches;
      ++batch_id;
      ScopedSpan span{&tracer, "measure.push", root, batch_id};
      queue.push({batch_id, std::move(batch)});
      batch.clear();
    };
    const auto extract = [&] {
      std::vector<detect::IdnEntry> idns;
      {
        ScopedSpan span{&tracer, "idna.extract", root};
        idns = core::ShamFinder::extract_idns(pending, "com");
      }
      pending.clear();
      for (auto& entry : idns) {
        batch.push_back(std::move(entry));
        if (batch.size() >= kBatch) deliver();
      }
    };
    std::vector<char> buffer(64 * 1024);  // parse_zone_file's chunk size
    while (true) {
      std::size_t got = 0;
      {
        ScopedSpan span{&tracer, "measure.read", root};
        file.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        got = static_cast<std::size_t>(file.gcount());
      }
      if (got == 0) break;
      out.bytes += got;
      {
        ScopedSpan span{&tracer, "dns.parse", root};
        reader.feed({buffer.data(), got});
      }
      if (pending.size() >= kBatch) extract();
    }
    {
      ScopedSpan span{&tracer, "dns.parse", root};
      reader.finish();
    }
    extract();
    deliver();
  } catch (...) {
    produce_error = std::current_exception();
  }
  queue.close();
  for (auto& w : workers) w.join();
  for (const auto& e : worker_errors) {
    if (e) std::rethrow_exception(e);
  }
  if (produce_error) std::rethrow_exception(produce_error);

  {
    ScopedSpan span{&tracer, "measure.merge", root};
    std::vector<measure::DetectionOutcome> all;
    for (auto& part : parts) {
      for (auto& outcome : part) all.push_back(std::move(outcome));
    }
    out.outcome = measure::merge_outcomes(std::move(all));
  }
  for (std::size_t k = 0; k < kShards; ++k) {
    out.candidates += candidates[k];
    out.threads_used = std::max(out.threads_used, threads_used[k]);
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

/// Oracle: a cache-free kSerial engine over the zone's decoded IDNs, plus
/// the planted attacks whose substitutions the database lists.
struct Oracle {
  std::uint64_t fingerprint = 0;
  std::size_t verdicts = 0;
};

Oracle check_oracle(const Inputs& in, RunResult& r) {
  std::vector<detect::IdnEntry> idns;
  measure::StreamOptions stream;
  stream.tld = "com";
  measure::stream_zone_idns(in.zone_path, stream,
                            [&](std::span<const detect::IdnEntry> batch) {
                              idns.insert(idns.end(), batch.begin(), batch.end());
                            });
  const auto artifact =
      std::make_shared<const db::DbArtifact>(db::DbArtifact::load(in.artifact_path));
  const auto serial = detect::Engine::from_db_artifact(
      artifact, {.strategy = detect::Strategy::kSerial, .cache = false});
  const auto& refs = artifact->references();
  const auto response = serial.detect({.references = refs, .idns = idns});
  const auto outcome = measure::canonicalize_matches(response.matches, idns);

  std::set<std::pair<std::size_t, std::string>> found;
  for (const auto& v : outcome.verdicts) found.emplace(v.reference_index, v.ace);
  std::set<std::string> in_zone;
  for (const auto& e : idns) in_zone.insert(e.ace);
  std::size_t checked = 0;
  for (const auto& attack : in.attacks) {
    if (!in_zone.contains(attack.ace)) continue;  // not in the registry list
    const auto ref = std::find(refs.begin(), refs.end(), attack.target);
    const auto decoded = idna::to_u_label(attack.ace);
    if (ref == refs.end() || !decoded || decoded->size() != attack.target.size()) continue;
    bool listed = true;
    for (std::size_t i = 0; i < decoded->size(); ++i) {
      const auto a = static_cast<unicode::CodePoint>(
          static_cast<unsigned char>(attack.target[i]));
      if ((*decoded)[i] != a && !serial.db().are_homoglyphs(a, (*decoded)[i])) {
        listed = false;
      }
    }
    if (!listed) continue;
    ++checked;
    if (!found.contains({static_cast<std::size_t>(ref - refs.begin()), attack.ace})) {
      r.fail("planted attack %s on %s is not among the verdicts", attack.ace.c_str(),
             attack.target.c_str());
    }
  }
  r.note("oracle: kSerial over %zu decoded IDNs -> %zu verdicts, fingerprint %s; "
         "%zu planted attacks checked",
         idns.size(), outcome.verdicts.size(), hex64(outcome.fingerprint).c_str(), checked);
  if (checked == 0) r.fail("no planted attack could be checked");
  return {outcome.fingerprint, outcome.verdicts.size()};
}

void account(const std::vector<FleetPass>& passes, const Oracle& oracle, RunResult& r) {
  for (const auto& p : passes) {
    r.attempted += std::max<std::size_t>(1, p.batches);
    if (!p.error.empty()) {
      r.failed += std::max<std::size_t>(1, p.batches);
      r.fail("fleet pass failed: %s", p.error.c_str());
    } else if (p.fingerprint != oracle.fingerprint || p.matches != oracle.verdicts) {
      r.failed += p.batches;
      r.fail("fleet fingerprint %s (%zu verdicts) differs from the kSerial oracle",
             hex64(p.fingerprint).c_str(), p.matches);
    }
  }
}

}  // namespace

RunResult run_zone_scan(const RunArgs& args, const Inputs& in) {
  RunResult r;
  // Set-up as each fleet worker pays it: map + validate the artifact,
  // construct the engine over it.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> init_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const auto artifact =
        std::make_shared<const db::DbArtifact>(db::DbArtifact::load(in.artifact_path));
    const auto t1 = Clock::now();
    const auto engine = detect::Engine::from_db_artifact(artifact);
    const auto t2 = Clock::now();
    load_s.push_back(seconds_between(t0, t1));
    init_s.push_back(seconds_between(t1, t2));
    setup_s.push_back(seconds_between(t0, t2));
  }

  const auto options = fleet_options(in, kShards);
  if (!args.trace) {
    const auto cpu0 = cpu_times();
    const auto passes = fleet_passes(options, args.seconds);
    const auto cpu1 = cpu_times();
    std::vector<double> pass_s;
    for (const auto& p : passes) pass_s.push_back(p.seconds);
    r.metric("throughput_per_s", median(rates(passes)), "1/s");
    r.metric("latency_p50_ms", median(pass_s) * 1e3, "ms");
    r.metric("setup_s", median(setup_s), "s");
    r.note("scan_domains_per_s = %.1f over %zu passes of %zu domains (4 shards), "
           "slowest pass %.1f ms; cpu user %.2f s, sys %.2f s; peak RSS %.1f MiB",
           median(rates(passes)), passes.size(), passes.front().domains,
           max_of(pass_s) * 1e3, cpu1.user - cpu0.user, cpu1.sys - cpu0.sys,
           peak_rss_mib());
    account(passes, check_oracle(in, r), r);
    return r;
  }

  // Traced run: untraced fleet passes (the overhead baseline), one
  // single-shard pass (the single-thread baseline), then traced passes.
  const auto untraced = fleet_passes(options, args.seconds * 0.4);
  const auto single = fleet_passes(fleet_options(in, 1), 0.0);
  const double untraced_rate = median(rates(untraced));
  const double single_rate = median(rates(single));

  Tracer tracer;
  std::vector<double> traced_rate;
  std::vector<TracedPass> traced;
  const auto artifact =
      std::make_shared<const db::DbArtifact>(db::DbArtifact::load(in.artifact_path));
  const auto engine = detect::Engine::from_db_artifact(artifact);
  const auto cpu0 = cpu_times();
  const auto start = Clock::now();
  while (traced.size() < static_cast<std::size_t>(kMinPasses) ||
         seconds_between(start, Clock::now()) < args.seconds * 0.5) {
    traced.push_back(traced_pass(engine, artifact->references(), in.zone_path, tracer));
    traced_rate.push_back(static_cast<double>(traced.back().owners) /
                          traced.back().seconds);
  }
  const auto cpu1 = cpu_times();

  const auto oracle = check_oracle(in, r);
  account(untraced, oracle, r);
  account(single, oracle, r);
  for (const auto& t : traced) {
    r.attempted += t.batches;
    if (t.outcome.fingerprint != untraced.front().fingerprint) {
      r.failed += t.batches;
      r.fail("traced fingerprint %s differs from the untraced one %s",
             hex64(t.outcome.fingerprint).c_str(),
             hex64(untraced.front().fingerprint).c_str());
    }
  }

  double wall = 0.0;
  for (const auto& t : traced) wall += t.seconds;
  const auto& last = traced.back();
  const double n = static_cast<double>(traced.size());
  r.metric("db.load_s", median(load_s), "s");
  r.metric("detect.engine_init_s", median(init_s), "s");
  r.metric("proc.cpu_user_s", cpu1.user - cpu0.user, "s");
  r.metric("proc.cpu_sys_s", cpu1.sys - cpu0.sys, "s");
  r.metric("proc.rss_peak_mib", peak_rss_mib(), "MiB");
  r.metric("trace.overhead_pct",
           (untraced_rate - median(traced_rate)) / untraced_rate * 100.0, "%");
  r.metric("db.artifact_bytes", static_cast<double>(in.artifact_bytes), "B");
  r.metric("measure.read_mib_per_s",
           n * static_cast<double>(last.bytes) / (1 << 20) / tracer.self_seconds("measure.read"),
           "MiB/s");
  r.metric("dns.records_per_s",
           n * static_cast<double>(last.records) / tracer.self_seconds("dns.parse"), "1/s");
  r.metric("dns.records", static_cast<double>(last.records), "count");
  r.metric("dns.bytes", static_cast<double>(last.bytes), "B");
  r.metric("idna.names_per_s",
           n * static_cast<double>(last.owners) / tracer.self_seconds("idna.extract"), "1/s");
  r.metric("idna.idns", static_cast<double>(last.idns), "count");
  r.metric("idna.rejected", static_cast<double>(last.ace_owners - last.idns), "count");
  r.metric("measure.producer_blocked_pct", tracer.self_seconds("measure.push") / wall * 100.0,
           "%");
  r.metric("measure.worker_wait_pct",
           tracer.self_seconds("measure.wait") / (wall * kShards) * 100.0, "%");
  r.metric("detect.idns_per_s",
           n * static_cast<double>(last.idns) / tracer.self_seconds("detect.batch"), "1/s");
  r.metric("detect.candidates", static_cast<double>(last.candidates), "count");
  r.metric("detect.threads_used", static_cast<double>(last.threads_used), "count");
  r.metric("measure.merge_pct", tracer.self_seconds("measure.merge") / wall * 100.0, "%");
  r.metric("measure.shard_speedup", untraced_rate / single_rate, "x");
  r.note("traced: %zu passes at %.1f domains/s; untraced %.1f (4 shards), %.1f (1 shard)",
         traced.size(), median(traced_rate), untraced_rate, single_rate);
  tracer.write(args.work_dir + "/spans-zone_scan.jsonl");
  return r;
}

}  // namespace shambench
