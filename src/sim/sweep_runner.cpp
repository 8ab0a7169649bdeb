#include "sim/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/traffic.h"
#include "topology/topology.h"

namespace d2net {

std::uint64_t derive_point_seed(std::uint64_t base_seed, std::uint64_t point_index) {
  // SplitMix64 finalizer over a golden-ratio-spaced input stream.
  std::uint64_t x = base_seed + (point_index + 1) * 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

SweepRunner::SweepRunner(SweepRunOptions opts) : opts_(std::move(opts)) {
  D2NET_REQUIRE(opts_.jobs >= 0, "jobs must be >= 0 (0 = hardware concurrency)");
  jobs_ = opts_.jobs == 0 ? ThreadPool::hardware_concurrency() : opts_.jobs;
}

std::vector<std::vector<SweepPoint>> SweepRunner::run(
    const std::vector<SweepSeriesSpec>& specs) {
  struct PointRef {
    std::size_t series;
    std::size_t load_index;
  };

  // Resolve the shared minimal tables: one per distinct topology, reused
  // across series (and by every point of each series). The Valiant/UGAL
  // intermediate candidate sets are shared the same way, so every in-flight
  // point reads one immutable copy instead of rebuilding its own.
  std::vector<std::shared_ptr<const MinimalTable>> tables(specs.size());
  std::vector<SharedIntermediates> intermediates(specs.size());
  std::unordered_map<const Topology*, std::shared_ptr<const MinimalTable>> by_topo;
  std::unordered_map<const Topology*, SharedIntermediates> vias_by_topo;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const SweepSeriesSpec& spec = specs[s];
    D2NET_REQUIRE(spec.topo != nullptr, "series needs a topology");
    D2NET_REQUIRE(spec.pattern != nullptr, "series needs a traffic pattern");
    if (spec.strategy != RoutingStrategy::kMinimal) {
      auto vit = vias_by_topo.find(spec.topo);
      if (vit == vias_by_topo.end()) {
        vit = vias_by_topo
                  .emplace(spec.topo, std::make_shared<const std::vector<int>>(
                                          valiant_intermediates(*spec.topo)))
                  .first;
      }
      intermediates[s] = vit->second;
    }
    if (spec.table != nullptr) {
      tables[s] = spec.table;
      by_topo.emplace(spec.topo, spec.table);
      continue;
    }
    auto it = by_topo.find(spec.topo);
    if (it == by_topo.end()) {
      it = by_topo.emplace(spec.topo, std::make_shared<const MinimalTable>(*spec.topo))
               .first;
    }
    tables[s] = it->second;
  }

  // Flatten to a deterministic point list: series-major, load-minor. The
  // global point index doubles as the seed-derivation index.
  std::vector<PointRef> points;
  std::vector<std::vector<SweepPoint>> out(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    out[s].resize(specs[s].loads.size());
    for (std::size_t l = 0; l < specs[s].loads.size(); ++l) points.push_back({s, l});
  }

  std::vector<std::int64_t> events(points.size(), 0);
  const auto t0 = std::chrono::steady_clock::now();

  auto key_for = [&](std::size_t i) { return opts_.scope + "#" + std::to_string(i); };
  auto topo_fingerprint = [](const Topology& t) {
    std::ostringstream os;
    os << "r=" << t.num_routers() << ",n=" << t.num_nodes() << ",l=" << t.num_links();
    return os.str();
  };

  // Resolve journal state up front, on the calling thread: configuration
  // mismatches must abort the run before any simulation starts, and doing
  // it here keeps the worker path free of validation branches.
  std::vector<const JournalEntry*> restored(points.size(), nullptr);
  if (opts_.journal != nullptr) {
    opts_.journal->register_scope(opts_.scope);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const JournalEntry* e = opts_.journal->find(key_for(i));
      if (e == nullptr || !e->completed()) continue;  // failed/missing: re-run
      const SweepSeriesSpec& spec = specs[points[i].series];
      const double load = spec.loads[points[i].load_index];
      const std::uint64_t seed =
          spec.seed_override ? *spec.seed_override : derive_point_seed(opts_.config.seed, i);
      // The manifest hash should have caught any config drift already;
      // these per-entry checks are the second lock on the same door (a
      // journal edited by hand, or a manifest that failed to capture some
      // input) — restoring a point from a different sweep is silent data
      // corruption, so they are hard errors, not warnings.
      D2NET_REQUIRE(e->label == spec.label && e->load == load && e->seed == seed &&
                        e->topo == topo_fingerprint(*spec.topo),
                    "journal entry '" + e->key +
                        "' does not match the current sweep (label/load/seed/topology "
                        "drift); refusing to mix results — use a fresh --journal dir");
      restored[i] = e;
    }
  }

  auto run_point = [&](std::size_t i) {
    const SweepSeriesSpec& spec = specs[points[i].series];
    const double load = spec.loads[points[i].load_index];
    const TimePs duration = spec.duration > 0 ? spec.duration : opts_.duration;
    const std::uint64_t seed0 =
        spec.seed_override ? *spec.seed_override : derive_point_seed(opts_.config.seed, i);

    if (const JournalEntry* e = restored[i]) {
      SweepPoint pt;
      pt.offered = load;
      pt.restored = true;
      pt.restored_json = e->payload;
      pt.attempts = e->attempts;
      pt.result.offered_load = load;
      pt.result.accepted_throughput = e->throughput;
      pt.result.avg_latency_ns = e->avg_latency_ns;
      pt.result.p99_latency_ns = e->p99_latency_ns;
      pt.result.packets_measured = e->packets_measured;
      pt.result.events_processed = e->events;
      pt.result.timed_out = e->status == "timed_out";
      events[i] = e->events;
      out[points[i].series][points[i].load_index] = std::move(pt);
      return;
    }

    const auto p0 = std::chrono::steady_clock::now();
    const int max_attempts = std::max(1, opts_.point_attempts);
    SweepPoint pt;
    pt.offered = load;
    // Bounded retry: a fresh attempt re-derives its seed from the point's
    // first-attempt seed, so retries explore genuinely different event
    // streams while staying a pure function of (base seed, index, attempt).
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      SimConfig cfg = opts_.config;
      cfg.seed = attempt == 0 ? seed0 : derive_point_seed(seed0, attempt);
      if (spec.fault.enabled()) cfg.fault = spec.fault;
      if (opts_.point_timeout_seconds > 0.0) {
        cfg.wall_limit_seconds = opts_.point_timeout_seconds;
      }
      try {
        SimStack stack(*spec.topo, tables[points[i].series], spec.strategy, cfg,
                       spec.params, intermediates[points[i].series]);
        pt.result = stack.run_open_loop(*spec.pattern, load, duration, opts_.warmup);
        pt.attempts = attempt + 1;
        pt.failed = false;
        pt.error.clear();
        if (!pt.result.timed_out) break;  // done; timed out => retry
      } catch (const std::exception& e) {
        // Annotate with the failing point's identity: with many points in
        // flight a bare what() cannot be traced back to a simulation.
        std::ostringstream msg;
        msg << "sweep point failed (series \"" << spec.label << "\", load " << load
            << ", point " << i << "): " << e.what();
        pt.attempts = attempt + 1;
        pt.failed = true;
        pt.error = msg.str();
        pt.result = OpenLoopResult{};
        if (attempt + 1 >= max_attempts && !(opts_.tolerate_failures && opts_.journal)) {
          throw std::runtime_error(pt.error);
        }
      }
    }
    events[i] = pt.result.events_processed;

    if (opts_.journal != nullptr) {
      JournalEntry e;
      e.key = key_for(i);
      e.label = spec.label;
      e.topo = topo_fingerprint(*spec.topo);
      e.load = load;
      e.seed = seed0;
      e.status = pt.failed ? "failed" : pt.result.timed_out ? "timed_out" : "ok";
      e.attempts = pt.attempts;
      e.events = pt.result.events_processed;
      e.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - p0).count();
      e.throughput = pt.result.accepted_throughput;
      e.avg_latency_ns = pt.result.avg_latency_ns;
      e.p99_latency_ns = pt.result.p99_latency_ns;
      e.packets_measured = pt.result.packets_measured;
      e.error = pt.error;
      if (!pt.failed && opts_.serialize) e.payload = opts_.serialize(pt);
      opts_.journal->append(e);
    }
    out[points[i].series][points[i].load_index] = std::move(pt);
  };

  // Exactly jobs_ threads simulate. Journaled runs stop claiming new
  // points after a hard error (journal I/O, non-tolerated point failure) —
  // everything already completed is on disk, so bailing out fast beats
  // burning hours on a run that will exit non-zero anyway.
  ThreadPool::run_indexed(jobs_, points.size(), run_point,
                          /*stop_on_first_error=*/opts_.journal != nullptr);

  const auto t1 = std::chrono::steady_clock::now();
  stats_ = SweepRunStats{};
  stats_.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  stats_.points = static_cast<std::int64_t>(points.size());
  stats_.jobs = jobs_;
  for (std::int64_t e : events) stats_.events += e;
  for (const auto& series : out) {
    for (const SweepPoint& pt : series) {
      stats_.restored_points += pt.restored ? 1 : 0;
      stats_.failed_points += pt.failed ? 1 : 0;
      stats_.timed_out_points += pt.result.timed_out ? 1 : 0;
    }
  }
  return out;
}

std::vector<SweepPoint> run_load_sweep_parallel(const SweepSeriesSpec& spec,
                                                const SweepRunOptions& opts) {
  SweepRunner runner(opts);
  auto tables = runner.run({spec});
  return std::move(tables.front());
}

}  // namespace d2net
