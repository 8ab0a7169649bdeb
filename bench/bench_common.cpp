#include "bench_common.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/error.h"
#include "common/journal.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "sim/campaign.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net::bench {

SweepRunOptions BenchOptions::sweep_options() const {
  SweepRunOptions out;
  out.jobs = jobs;
  out.config.seed = seed;
  out.config.shards = shards;
  out.config.metrics.enabled = metrics;
  if (metrics_sample > 0) out.config.metrics.sample_period = metrics_sample;
  out.config.engine = engine;
  out.config.flow.flow_bytes = flow_bytes;
  out.config.flow.rate_interval = flow_interval;
  out.config.flow.max_active_per_node = flow_active;
  out.duration = duration;
  out.warmup = warmup;
  out.point_timeout_seconds = point_timeout_s;
  out.point_attempts = 1 + point_retries;
  return out;
}

void add_standard_flags(Cli& cli) {
  cli.flag("full", false, "run the paper-exact configurations (q=13/h=15/k=12; slow)")
      .flag("duration-us", 16.0, "simulated time per load point, microseconds")
      .flag("warmup-us", 4.0, "statistics warm-up, microseconds")
      .flag("seed", std::int64_t{1}, "simulation seed")
      .flag("csv", false, "also print CSV after each table")
      .flag("jobs", std::int64_t{0},
            "concurrent sweep points (0 = all hardware threads); results "
            "are identical for every value")
      .flag("shards", std::int64_t{1},
            "worker event cores per simulation (conservative time-window "
            "sharding; results are bit-identical for every value, see "
            "docs/sharded_sim.md)")
      .flag("json", std::string{},
            "write per-sweep timing/result JSON to this path")
      .flag("metrics", false,
            "collect per-port/VC metrics and run-phase detail into --json "
            "(does not change simulation results)")
      .flag("metrics-sample-us", 1.0,
            "buffer-occupancy sampling period with --metrics, microseconds")
      .flag("engine", std::string{"packet"},
            "simulation engine: 'packet' (per-packet events, the default) or "
            "'flow' (flow-level max-min-fair rates; see docs/flow_engine.md)")
      .flag("flow-bytes", std::int64_t{4096},
            "with --engine flow: bytes per open-loop flow")
      .flag("flow-interval-us", 0.0,
            "with --engine flow: rate-recompute batching interval in "
            "microseconds (0 = exact event-driven recompute)")
      .flag("flow-active", std::int64_t{16},
            "with --engine flow: concurrent flows one node may source "
            "before arrivals queue at the NIC")
      .flag("journal", std::string{},
            "crash-safe journal directory: manifest + append-only JSONL of "
            "completed points (see docs/durable_sweeps.md)")
      .flag("resume", false,
            "with --journal: skip points already completed in the journal "
            "and re-run only missing/failed ones (manifest must match)")
      .flag("point-timeout", 0.0,
            "wall-clock budget per sweep point in seconds (0 = unlimited); "
            "an over-budget point ends with timed_out=true + partial stats")
      .flag("point-retries", std::int64_t{1},
            "extra attempts (each with a fresh derived seed) for a point "
            "that timed out or threw");
}

BenchOptions read_standard_flags(const Cli& cli, int workers) {
  D2NET_REQUIRE(workers >= 1, "worker count must be >= 1");
  BenchOptions opts;
  opts.full = cli.get_bool("full");
  opts.duration = us(cli.get_double("duration-us"));
  opts.warmup = us(cli.get_double("warmup-us"));
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opts.csv = cli.get_bool("csv");
  opts.jobs = static_cast<int>(cli.get_int("jobs"));
  D2NET_REQUIRE(opts.jobs >= 0, "--jobs must be >= 0");
  opts.shards = static_cast<int>(cli.get_int("shards"));
  D2NET_REQUIRE(opts.shards >= 1, "--shards must be >= 1");
  // With explicit --jobs the user overrides the auto-division; flag the
  // combination that lands shards x jobs threads on fewer cores. --jobs 0
  // never oversubscribes solo (SweepRunner divides the machine by shards),
  // but N co-located campaign workers each take that division — the
  // auto-sized case oversubscribes exactly when workers > 1.
  if ((opts.jobs > 0 && opts.shards > 1) || workers > 1) {
    const int hw = ThreadPool::hardware_concurrency();
    const int eff_jobs =
        opts.jobs > 0 ? opts.jobs : std::max(1, hw / std::max(1, opts.shards));
    const long long threads = static_cast<long long>(workers) * opts.shards * eff_jobs;
    // atomic for the same reason as the demotion notes in sim/network.cpp:
    // warn-once flags in reusable code must assume concurrent callers.
    static std::atomic<bool> warned{false};
    if (threads > hw && !warned.exchange(true, std::memory_order_relaxed)) {
      if (workers > 1) {
        std::fprintf(stderr,
                     "warning: --workers %d x --shards %d x %d job(s) = %lld "
                     "simulation threads exceeds hardware concurrency (%d) if "
                     "all workers share this host; expect contention, not "
                     "speedup\n",
                     workers, opts.shards, eff_jobs, threads, hw);
      } else {
        std::fprintf(stderr,
                     "warning: --shards %d x --jobs %d = %lld simulation "
                     "threads exceeds hardware concurrency (%d); expect "
                     "contention, not speedup\n",
                     opts.shards, opts.jobs, threads, hw);
      }
    }
  }
  opts.json_path = cli.get_string("json");
  opts.metrics = cli.get_bool("metrics");
  const double sample_us = cli.get_double("metrics-sample-us");
  D2NET_REQUIRE(sample_us > 0.0, "--metrics-sample-us must be > 0");
  opts.metrics_sample = us(sample_us);
  const std::string engine = cli.get_string("engine");
  if (engine == "packet") {
    opts.engine = SimEngine::kPacket;
  } else if (engine == "flow") {
    opts.engine = SimEngine::kFlow;
  } else {
    throw ArgumentError("--engine: unknown engine '" + engine +
                        "' (expected 'packet' or 'flow')");
  }
  opts.flow_bytes = cli.get_int("flow-bytes");
  D2NET_REQUIRE(opts.flow_bytes > 0, "--flow-bytes must be > 0");
  const double flow_interval_us = cli.get_double("flow-interval-us");
  D2NET_REQUIRE(flow_interval_us >= 0.0, "--flow-interval-us must be >= 0");
  opts.flow_interval = us(flow_interval_us);
  opts.flow_active = static_cast<int>(cli.get_int("flow-active"));
  D2NET_REQUIRE(opts.flow_active >= 1, "--flow-active must be >= 1");
  opts.journal_dir = cli.get_string("journal");
  opts.resume = cli.get_bool("resume");
  D2NET_REQUIRE(!opts.resume || !opts.journal_dir.empty(),
                "--resume requires --journal=<dir>");
  opts.point_timeout_s = cli.get_double("point-timeout");
  D2NET_REQUIRE(opts.point_timeout_s >= 0.0, "--point-timeout must be >= 0");
  opts.point_retries = static_cast<int>(cli.get_int("point-retries"));
  D2NET_REQUIRE(opts.point_retries >= 0, "--point-retries must be >= 0");
  if (opts.full) {
    // The paper simulates 200 us with a 20 us warm-up; scale up unless the
    // user overrode the defaults.
    if (opts.duration == us(16.0)) opts.duration = us(50.0);
    if (opts.warmup == us(4.0)) opts.warmup = us(10.0);
  }
  return opts;
}

namespace {

Topology paper_slim_fly(bool full, bool ceil_p) {
  return build_slim_fly(full ? 13 : 7, ceil_p ? SlimFlyP::kCeil : SlimFlyP::kFloor);
}
Topology paper_mlfm(bool full) { return build_mlfm(full ? 15 : 7); }
Topology paper_oft(bool full) { return build_oft(full ? 12 : 6); }

}  // namespace

std::vector<SystemConfig> paper_systems(bool full) {
  std::vector<SystemConfig> out;
  out.push_back({"SF p=fl", paper_slim_fly(full, false)});
  out.push_back({"SF p=cl", paper_slim_fly(full, true)});
  out.push_back({"MLFM", paper_mlfm(full)});
  out.push_back({"OFT", paper_oft(full)});
  return out;
}

// ------------------------------------------------------------- BenchReport

namespace {

// String emission uses the shared d2net::json_escape (common/journal.h):
// exception texts and labels must never corrupt a report or journal line.

void write_phases(std::ostream& os, const RunPhaseBreakdown& ph) {
  os << "{\"injected_warmup\": " << ph.injected_warmup
     << ", \"injected_measured\": " << ph.injected_measured
     << ", \"delivered_warmup\": " << ph.delivered_warmup
     << ", \"delivered_measured\": " << ph.delivered_measured
     << ", \"delivered_carryover\": " << ph.delivered_carryover
     << ", \"in_flight_at_end\": " << ph.in_flight_at_end << "}";
}

void write_vc(std::ostream& os, int vc, const VcMetrics& vm) {
  os << "{\"vc\": " << vc << ", \"packets\": " << vm.packets
     << ", \"bytes\": " << vm.bytes << ", \"minimal\": " << vm.minimal_packets
     << ", \"indirect\": " << vm.indirect_packets << "}";
}

void write_metrics(std::ostream& os, const SimMetrics& m) {
  os << "{\"sample_period_us\": " << to_us(m.sample_period);
  // Engine pre-sizing actuals (see EngineCapacities): a jump here between
  // runs of the same configuration is a sizing regression.
  os << ", \"capacities\": {\"event_queue_reserved\": "
     << m.capacities.event_queue_reserved
     << ", \"packet_pool_reserved\": " << m.capacities.packet_pool_reserved
     << ", \"packet_pool_slots\": " << m.capacities.packet_pool_slots
     << ", \"voq_cells\": " << m.capacities.voq_cells << "}";
  os << ", \"counters\": {";
  bool first = true;
  m.registry.for_each_counter([&](const std::string& name,
                                  const MetricsRegistry::Counter& c) {
    os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << c.value;
    first = false;
  });
  os << "}, \"histograms\": {";
  first = true;
  m.registry.for_each_histogram([&](const std::string& name, const LogHistogram& h) {
    os << (first ? "" : ", ") << "\"" << json_escape(name)
       << "\": {\"count\": " << h.count() << ", \"mean\": ";
    write_json_double(os, h.mean());
    os << ", \"p50\": ";
    write_json_double(os, h.percentile(50));
    os << ", \"p99\": ";
    write_json_double(os, h.percentile(99));
    os << ", \"underflow\": " << h.underflow() << ", \"overflow\": " << h.overflow()
       << "}";
    first = false;
  });
  os << "}";
  // VC traffic aggregated over all ports.
  std::vector<VcMetrics> totals;
  for (const PortMetrics& pm : m.ports) {
    if (totals.size() < pm.vcs.size()) totals.resize(pm.vcs.size());
    for (std::size_t v = 0; v < pm.vcs.size(); ++v) {
      totals[v].packets += pm.vcs[v].packets;
      totals[v].bytes += pm.vcs[v].bytes;
      totals[v].minimal_packets += pm.vcs[v].minimal_packets;
      totals[v].indirect_packets += pm.vcs[v].indirect_packets;
    }
  }
  os << ", \"vc_totals\": [";
  for (std::size_t v = 0; v < totals.size(); ++v) {
    os << (v ? ", " : "");
    write_vc(os, static_cast<int>(v), totals[v]);
  }
  os << "], \"occupancy\": [";
  for (std::size_t i = 0; i < m.occupancy.size(); ++i) {
    os << (i ? ", " : "") << "{\"t_us\": " << to_us(m.occupancy[i].time)
       << ", \"bytes\": " << m.occupancy[i].buffered_bytes << "}";
  }
  os << "]";
  // Sharded runs additionally report window-barrier synchronization and
  // per-shard engine sizing (absent for serial runs, keeping their output
  // byte-stable across versions).
  if (m.sharding.shards > 1) {
    const ShardingMetrics& sh = m.sharding;
    os << ", \"sharding\": {\"shards\": " << sh.shards
       << ", \"windows\": " << sh.windows << ", \"mean_window_width_ns\": ";
    write_json_double(os, sh.mean_window_width_ns);
    os << ", \"cross_shard_messages\": " << sh.cross_shard_messages
       << ", \"shards_detail\": [";
    for (std::size_t s = 0; s < sh.shard.size(); ++s) {
      const ShardMetrics& sm = sh.shard[s];
      os << (s ? ", " : "") << "{\"shard\": " << s
         << ", \"routers\": " << sm.routers << ", \"nodes\": " << sm.nodes
         << ", \"events\": " << sm.events
         << ", \"messages_sent\": " << sm.messages_sent
         << ", \"capacities\": {\"event_queue_reserved\": "
         << sm.capacities.event_queue_reserved
         << ", \"packet_pool_reserved\": " << sm.capacities.packet_pool_reserved
         << ", \"packet_pool_slots\": " << sm.capacities.packet_pool_slots
         << ", \"voq_cells\": " << sm.capacities.voq_cells << "}}";
    }
    os << "]}";
  }
  os << ", \"ports\": [";
  bool first_port = true;
  for (const PortMetrics& pm : m.ports) {
    if (pm.packets_forwarded == 0 && pm.credit_stall_ps == 0) continue;
    os << (first_port ? "" : ", ");
    first_port = false;
    os << "{\"router\": " << pm.router << ", \"port\": " << pm.port
       << ", \"peer_router\": " << pm.peer_router
       << ", \"peer_node\": " << pm.peer_node
       << ", \"packets\": " << pm.packets_forwarded
       << ", \"bytes\": " << pm.bytes_forwarded
       << ", \"credit_stall_ns\": " << to_ns(pm.credit_stall_ps)
       << ", \"occ_mean_bytes\": ";
    write_json_double(os, pm.occupancy_bytes.mean());
    os << ", \"occ_max_bytes\": ";
    write_json_double(os, pm.occupancy_bytes.max());
    os << ", \"vcs\": [";
    bool first_vc = true;
    for (std::size_t v = 0; v < pm.vcs.size(); ++v) {
      if (pm.vcs[v].packets == 0) continue;
      os << (first_vc ? "" : ", ");
      first_vc = false;
      write_vc(os, static_cast<int>(v), pm.vcs[v]);
    }
    os << "]}";
  }
  os << "]}";
}

void write_faults(std::ostream& os, const FaultStats& f) {
  os << "{\"faults_applied\": " << f.faults_applied
     << ", \"packets_dropped\": " << f.packets_dropped
     << ", \"packets_retried\": " << f.packets_retried
     << ", \"packets_lost\": " << f.packets_lost
     << ", \"reroutes\": " << f.reroutes
     << ", \"unreachable_pairs\": " << f.unreachable_pairs
     << ", \"wedged\": " << (f.wedged ? "true" : "false");
  if (f.wedged) {
    os << ", \"watchdog\": {\"t_us\": " << to_us(f.watchdog.time)
       << ", \"in_flight\": " << f.watchdog.in_flight
       << ", \"nic_backlog\": " << f.watchdog.nic_backlog
       << ", \"stalled_heads\": " << f.watchdog.stalled_heads
       << ", \"zero_credit_vcs\": " << f.watchdog.zero_credit_vcs << "}";
  }
  if (!f.delivered_bytes_buckets.empty()) {
    os << ", \"bucket_width_us\": " << to_us(f.bucket_width)
       << ", \"delivered_bytes_buckets\": [";
    for (std::size_t i = 0; i < f.delivered_bytes_buckets.size(); ++i) {
      os << (i ? ", " : "") << f.delivered_bytes_buckets[i];
    }
    os << "]";
  }
  // Control-plane convergence (propagation runs only): the block appears
  // exactly when an update was originated, so oracle-fault output stays
  // byte-stable across versions.
  const ConvergenceStats& cv = f.convergence;
  if (cv.updates > 0) {
    os << ", \"convergence\": {\"updates\": " << cv.updates
       << ", \"converged\": " << cv.converged << ", \"detections\": " << cv.detections
       << ", \"flood_messages\": " << cv.flood_messages
       << ", \"routers_reached\": " << cv.routers_reached
       << ", \"misroutes\": " << cv.misroutes << ", \"budget_drops\": " << cv.budget_drops
       << ", \"detection_ns_mean\": ";
    write_json_double(os, cv.detections > 0
                              ? to_ns(cv.detection_latency_sum) /
                                    static_cast<double>(cv.detections)
                              : 0.0);
    os << ", \"detection_ns_max\": " << to_ns(cv.detection_latency_max)
       << ", \"epoch_lag_ns_mean\": ";
    write_json_double(os, cv.routers_reached > 0
                              ? to_ns(cv.epoch_lag_sum) /
                                    static_cast<double>(cv.routers_reached)
                              : 0.0);
    os << ", \"epoch_lag_ns_max\": " << to_ns(cv.epoch_lag_max)
       << ", \"consistency_us_mean\": ";
    write_json_double(os, cv.converged > 0 ? to_us(cv.consistency_time_sum) /
                                                 static_cast<double>(cv.converged)
                                           : 0.0);
    os << ", \"consistency_us_max\": " << to_us(cv.consistency_time_max) << "}";
  }
  os << "}";
}

// The one serializer for a sweep point's result object. Everything the
// report emits per point goes through here, so the journal can record the
// exact rendered fragment and splice it back verbatim on resume.
void write_point_json(std::ostream& os, const SweepPoint& pt) {
  // write_json_double: a NaN (empty measurement window) or inf must render
  // as null — "nan" is not JSON and would corrupt the document and every
  // journal line carrying this fragment.
  os << "{\"load\": ";
  write_json_double(os, pt.offered);
  os << ", \"throughput\": ";
  write_json_double(os, pt.result.accepted_throughput);
  os << ", \"avg_latency_ns\": ";
  write_json_double(os, pt.result.avg_latency_ns);
  os << ", \"p99_latency_ns\": ";
  write_json_double(os, pt.result.p99_latency_ns);
  os << ", \"packets_measured\": " << pt.result.packets_measured
     << ", \"phases\": ";
  write_phases(os, pt.result.phases);
  // Durability fields appear only when non-default, keeping healthy runs'
  // output byte-stable across versions.
  if (pt.result.timed_out) os << ", \"timed_out\": true";
  if (pt.attempts > 1) os << ", \"attempts\": " << pt.attempts;
  if (pt.failed) {
    os << ", \"failed\": true, \"error\": \"" << json_escape(pt.error) << "\"";
  }
  if (pt.result.faults.enabled) {
    os << ", \"faults\": ";
    write_faults(os, pt.result.faults);
  }
  // Flow-engine points only: packet-engine points stay byte-identical.
  if (pt.result.flow.enabled) {
    const FlowEngineStats& fl = pt.result.flow;
    os << ", \"flow\": {\"repairs\": " << fl.repairs << ", \"widen_rounds\": " << fl.widen_rounds
       << ", \"fallbacks\": " << fl.fallbacks << ", \"flows_touched\": " << fl.flows_touched
       << ", \"rate_changes\": " << fl.rate_changes << ", \"stale_completions\": " << fl.stale_completions << "}";
  }
  if (pt.result.metrics != nullptr) {
    os << ", \"metrics\": ";
    write_metrics(os, *pt.result.metrics);
  }
  os << "}";
}

}  // namespace

std::string render_point_json(const SweepPoint& pt) {
  if (pt.restored && !pt.restored_json.empty()) return pt.restored_json;
  std::ostringstream os;
  os.precision(10);  // matches BenchReport::write's stream settings
  write_point_json(os, pt);
  return os.str();
}

std::string render_exchange_row_json(const ExchangeRow& row) {
  if (row.restored && !row.restored_json.empty()) return row.restored_json;
  const ExchangeResult& r = row.result;
  std::ostringstream os;
  os.precision(10);  // matches BenchReport::write's stream settings
  os << "{\"system\": \"" << json_escape(row.system) << "\", \"routing\": \""
     << json_escape(row.routing)
     << "\", \"completed\": " << (r.completed ? "true" : "false")
     << ", \"eff_throughput\": ";
  write_json_double(os, r.effective_throughput);
  os << ", \"completion_us\": ";
  write_json_double(os, r.completion_us);
  os << ", \"delivered_bytes\": " << r.delivered_bytes
     << ", \"total_bytes\": " << r.total_bytes << ", \"avg_latency_ns\": ";
  write_json_double(os, r.avg_latency_ns);
  // Like sweep points, abort markers appear only when set, keeping healthy
  // rows byte-stable across versions.
  if (r.timed_out) os << ", \"timed_out\": true";
  if (r.faults.wedged) os << ", \"wedged\": true";
  if (r.faults.enabled) {
    os << ", \"faults\": ";
    write_faults(os, r.faults);
  }
  if (r.metrics != nullptr) {
    os << ", \"metrics\": ";
    write_metrics(os, *r.metrics);
  }
  os << "}";
  return os.str();
}

std::string bench_manifest(const std::string& bench_name, const BenchOptions& opts) {
  // Everything that changes simulated results belongs here; presentation
  // knobs (--json path, --csv, --jobs, --shards) deliberately do not —
  // results are identical for every value (for --shards that is the
  // digest-verified sharding guarantee), so resuming across them is safe.
  std::ostringstream os;
  os.precision(17);
  os << "bench=" << bench_name << "\n"
     << "build=" << build_describe() << "\n"
     << "full=" << (opts.full ? 1 : 0) << "\n"
     << "duration_us=" << to_us(opts.duration) << "\n"
     << "warmup_us=" << to_us(opts.warmup) << "\n"
     << "seed=" << opts.seed << "\n"
     << "metrics=" << (opts.metrics ? 1 : 0) << "\n"
     << "metrics_sample_us=" << to_us(opts.metrics_sample) << "\n"
     << "point_timeout_s=" << opts.point_timeout_s << "\n"
     << "point_retries=" << opts.point_retries << "\n";
  // Flow-engine knobs appear only under --engine flow: packet-engine
  // manifests (and therefore every pre-existing journal) stay byte-identical
  // to versions that predate the flow engine, so old journals resume.
  if (opts.engine == SimEngine::kFlow) {
    os << "engine=flow\n"
       << "flow_bytes=" << opts.flow_bytes << "\n"
       << "flow_interval_us=" << to_us(opts.flow_interval) << "\n"
       << "flow_active=" << opts.flow_active << "\n";
  }
  return os.str();
}

BenchReport::BenchReport(std::string bench_name, const BenchOptions& opts,
                         std::string manifest_extra)
    : bench_name_(std::move(bench_name)), opts_(opts) {
  // Fail before the sweep runs, not after: a long --full run should not
  // discover an unwritable --json path at the very end.
  if (!opts_.json_path.empty()) {
    std::ofstream probe(opts_.json_path);
    D2NET_REQUIRE(probe.good(), "cannot open --json path: " + opts_.json_path);
  }
  if (!opts_.journal_dir.empty()) {
    JournalOptions jopts;
    jopts.durable = opts_.journal_durable;
    jopts.worker = opts_.journal_worker;
    journal_ = std::make_unique<SweepJournal>(
        opts_.journal_dir, bench_manifest(bench_name_, opts_) + manifest_extra,
        opts_.resume, std::move(jopts));
    if (opts_.resume && journal_->loaded_points() > 0) {
      const std::string prefix =
          opts_.journal_worker.empty() ? "" : "[worker " + opts_.journal_worker + "] ";
      std::printf("%sresuming from %s: %zu completed point(s) on record\n",
                  prefix.c_str(), opts_.journal_dir.c_str(), journal_->loaded_points());
    }
  }
}

void BenchReport::add_sweep(const std::string& title,
                            const std::vector<std::string>& labels,
                            const std::vector<std::vector<SweepPoint>>& series,
                            const SweepRunStats& stats) {
  sweeps_.push_back({title, labels, series, stats});
}

void BenchReport::add_exchange(const std::string& title,
                               const std::vector<ExchangeRow>& rows,
                               const SweepRunStats& stats) {
  exchanges_.push_back({title, rows, stats});
}

void BenchReport::write() const {
  if (opts_.json_path.empty()) return;
  std::ofstream os(opts_.json_path);
  D2NET_REQUIRE(os.good(), "cannot open --json path: " + opts_.json_path);
  os.precision(10);
  os << "{\n";
  os << "  \"bench\": \"" << json_escape(bench_name_) << "\",\n";
  os << "  \"jobs\": " << (sweeps_.empty() ? opts_.jobs : sweeps_.front().stats.jobs)
     << ",\n";
  os << "  \"shards\": " << opts_.shards << ",\n";
  os << "  \"seed\": " << opts_.seed << ",\n";
  os << "  \"full\": " << (opts_.full ? "true" : "false") << ",\n";
  os << "  \"duration_us\": " << to_us(opts_.duration) << ",\n";
  os << "  \"warmup_us\": " << to_us(opts_.warmup) << ",\n";
  os << "  \"sweeps\": [";
  for (std::size_t i = 0; i < sweeps_.size(); ++i) {
    const SweepRecord& sw = sweeps_[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"title\": \"" << json_escape(sw.title) << "\",\n";
    os << "     \"wall_seconds\": " << sw.stats.wall_seconds << ",\n";
    os << "     \"events\": " << sw.stats.events << ",\n";
    os << "     \"events_per_second\": " << sw.stats.events_per_second() << ",\n";
    os << "     \"points\": " << sw.stats.points << ",\n";
    os << "     \"series\": [";
    for (std::size_t s = 0; s < sw.series.size(); ++s) {
      os << (s ? ",\n" : "\n");
      os << "       {\"label\": \""
         << json_escape(s < sw.labels.size() ? sw.labels[s] : "") << "\", \"points\": [";
      for (std::size_t p = 0; p < sw.series[s].size(); ++p) {
        // render_point_json returns journal-restored fragments verbatim, so
        // a resumed run's document is byte-identical to an uninterrupted one.
        os << (p ? ", " : "") << render_point_json(sw.series[s][p]);
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "\n  ]";
  // Emitted only when an exchange table actually ran: sweep-only benches'
  // documents stay byte-identical to previous versions.
  if (!exchanges_.empty()) {
    os << ",\n  \"exchanges\": [";
    for (std::size_t i = 0; i < exchanges_.size(); ++i) {
      const ExchangeRecord& ex = exchanges_[i];
      os << (i ? ",\n" : "\n");
      os << "    {\"title\": \"" << json_escape(ex.title) << "\",\n";
      os << "     \"wall_seconds\": " << ex.stats.wall_seconds << ",\n";
      os << "     \"points\": " << ex.stats.points << ",\n";
      os << "     \"rows\": [";
      for (std::size_t r = 0; r < ex.rows.size(); ++r) {
        // render_exchange_row_json returns journal-restored fragments
        // verbatim, like sweep points.
        os << (r ? ",\n       " : "\n       ") << render_exchange_row_json(ex.rows[r]);
      }
      os << "\n     ]}";
    }
    os << "\n  ]";
  }
  os << "\n}\n";
  D2NET_REQUIRE(os.good(), "failed writing --json output: " + opts_.json_path);
}

int BenchReport::finish() const {
  std::int64_t failed = 0;
  std::int64_t timed_out = 0;
  for (const SweepRecord& sw : sweeps_) {
    for (std::size_t s = 0; s < sw.series.size(); ++s) {
      for (const SweepPoint& pt : sw.series[s]) {
        if (pt.result.timed_out) {
          ++timed_out;
          std::fprintf(stderr, "timed out: %s / %s load %.3g (%d attempt%s)\n",
                       sw.title.c_str(),
                       s < sw.labels.size() ? sw.labels[s].c_str() : "?", pt.offered,
                       pt.attempts, pt.attempts == 1 ? "" : "s");
        }
        if (pt.failed) {
          ++failed;
          std::fprintf(stderr, "FAILED: %s\n", pt.error.c_str());
        }
      }
    }
  }
  if (failed > 0 || timed_out > 0) {
    std::fprintf(stderr,
                 "sweep summary: %lld point(s) failed, %lld timed out%s\n",
                 static_cast<long long>(failed), static_cast<long long>(timed_out),
                 journal_ != nullptr
                     ? " — re-run with --resume to retry only the failed points"
                     : "");
  }
  write();
  // Timed-out points carry valid partial statistics under a budget the user
  // chose; only points with no result at all make the run a failure.
  return failed > 0 ? 1 : 0;
}

// ---------------------------------------------------------- sweep running

void print_sweep_table(const std::string& title,
                       const std::vector<std::string>& series_labels,
                       const std::vector<double>& loads,
                       const std::vector<std::vector<SweepPoint>>& series, bool csv) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> header{"load"};
  for (const auto& l : series_labels) {
    header.push_back(l + " thr");
    header.push_back(l + " lat(ns)");
  }
  Table t(header);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    std::vector<std::string> row{fmt(loads[i], 2)};
    for (const auto& s : series) {
      if (s[i].failed) {
        // No measurement exists; a zero would read as a real (terrible)
        // result.
        row.push_back("FAIL");
        row.push_back("FAIL");
      } else {
        // '*' marks partial statistics from a point cut off by
        // --point-timeout.
        const char* mark = s[i].result.timed_out ? "*" : "";
        row.push_back(fmt(s[i].result.accepted_throughput, 3) + mark);
        row.push_back(fmt(s[i].result.avg_latency_ns, 0) + mark);
      }
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  if (csv) t.print_csv(std::cout);
  // Saturation summary line.
  std::printf("saturation:");
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::printf("  %s=%.3f", series_labels[s].c_str(), saturation_point(series[s]));
  }
  std::printf("\n");
}

std::vector<std::vector<SweepPoint>> run_and_print_sweep(
    const std::string& title, const std::vector<SweepSeriesSpec>& specs,
    const BenchOptions& opts, BenchReport* report) {
  D2NET_REQUIRE(!specs.empty(), "sweep needs at least one series");
  for (const SweepSeriesSpec& s : specs) {
    D2NET_REQUIRE(s.loads == specs.front().loads,
                  "all series of one printed sweep must share a load grid");
  }
  SweepRunOptions ropts = opts.sweep_options();
  if (report != nullptr && report->journal() != nullptr) {
    ropts.journal = report->journal();
    ropts.scope = title;  // unique per journal, enforced by register_scope
    ropts.tolerate_failures = true;
    ropts.serialize = [](const SweepPoint& pt) { return render_point_json(pt); };
  }
  SweepRunner runner(ropts);
  auto series = runner.run(specs);
  std::vector<std::string> labels;
  for (const SweepSeriesSpec& s : specs) labels.push_back(s.label);
  print_sweep_table(title, labels, specs.front().loads, series, opts.csv);
  const SweepRunStats& st = runner.stats();
  std::printf("timing: %.2fs wall, %d jobs, %lld events, %.2fM events/s\n",
              st.wall_seconds, st.jobs, static_cast<long long>(st.events),
              st.events_per_second() / 1e6);
  if (st.restored_points > 0 || st.timed_out_points > 0 || st.failed_points > 0) {
    std::printf("durability: %lld point(s) restored from journal, %lld timed out, "
                "%lld failed\n",
                static_cast<long long>(st.restored_points),
                static_cast<long long>(st.timed_out_points),
                static_cast<long long>(st.failed_points));
  }
  if (report != nullptr) report->add_sweep(title, labels, series, st);
  return series;
}

std::vector<ExchangeRow> run_exchange_table(const std::string& title_base,
                                            const std::vector<ExchangeRowSpec>& rows,
                                            std::int64_t bytes_per_pair, A2aOrder order,
                                            TimePs time_limit, const BenchOptions& opts,
                                            BenchReport* report,
                                            const ExchangeRunControl* ctl) {
  D2NET_REQUIRE(!rows.empty(), "exchange table needs at least one row");
  // exchange_table_title is shared with the campaign merge step's key
  // enumeration — the composed scope must never drift between them.
  const std::string title = exchange_table_title(title_base, bytes_per_pair, order);
  const bool quiet = ctl != nullptr && ctl->quiet;
  const std::vector<char>* selected = ctl != nullptr ? ctl->selected : nullptr;
  if (selected != nullptr) {
    D2NET_REQUIRE(selected->size() == rows.size(),
                  "selection mask must cover every exchange row");
  }

  SimConfig cfg = opts.sweep_options().config;
  // --point-timeout bounds the wall clock of each exchange run.
  cfg.wall_limit_seconds = opts.point_timeout_s;

  SweepJournal* journal = ctl != nullptr && ctl->journal != nullptr
                              ? ctl->journal
                              : (report != nullptr ? report->journal() : nullptr);
  auto key_for = [&](std::size_t i) { return title + "#" + std::to_string(i); };
  auto fingerprint = [](const Topology& t) {
    std::ostringstream os;
    os << "r=" << t.num_routers() << ",n=" << t.num_nodes() << ",l=" << t.num_links();
    return os.str();
  };
  if (journal != nullptr && (ctl == nullptr || ctl->register_scope)) {
    journal->register_scope(title);
  }

  if (!quiet) std::printf("== %s ==\n", title.c_str());
  Table t({"system", "routing", "eff. throughput", "completion (us)"});
  const auto wall_start = std::chrono::steady_clock::now();
  std::int64_t restored_rows = 0;

  // One plan per distinct topology: the plan is a pure function of
  // (num_nodes, bytes, order, seed), so sharing it across this topology's
  // rows is behavior-identical to rebuilding per row.
  std::map<const Topology*, ExchangePlan> plans;
  std::vector<ExchangeRow> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ExchangeRowSpec& spec = rows[i];
    D2NET_REQUIRE(spec.topo != nullptr, "exchange row needs a topology");
    if (selected != nullptr && !(*selected)[i]) {
      // Another worker's row: untouched placeholder (never presented).
      out.emplace_back();
      continue;
    }
    ExchangeRow row;
    row.system = spec.system;
    row.routing = to_string(spec.strategy);

    const JournalEntry* e = journal != nullptr ? journal->find(key_for(i)) : nullptr;
    if (e != nullptr && e->completed()) {
      // Same second lock as the sweep runner's restore path: the manifest
      // hash should have caught config drift, but splicing a row from a
      // different table would be silent data corruption.
      D2NET_REQUIRE(e->label == row.system + " " + row.routing &&
                        e->seed == opts.seed && e->topo == fingerprint(*spec.topo),
                    "journal entry '" + e->key +
                        "' does not match the current exchange table "
                        "(system/routing/seed/topology drift); refusing to mix "
                        "results — use a fresh --journal dir");
      row.restored = true;
      row.restored_json = e->payload;
      row.result.completed = e->exchange_completed == 1;
      row.result.effective_throughput = e->throughput;
      row.result.completion_us = e->completion_us;
      row.result.avg_latency_ns = e->avg_latency_ns;
      row.result.timed_out = e->status == "timed_out";
      row.result.faults.wedged = e->wedged;
      ++restored_rows;
    } else {
      auto pit = plans.find(spec.topo);
      if (pit == plans.end()) {
        pit = plans
                  .emplace(spec.topo, make_all_to_all_plan(spec.topo->num_nodes(),
                                                           bytes_per_pair, order, opts.seed))
                  .first;
      }
      const auto row_start = std::chrono::steady_clock::now();
      SimStack stack(*spec.topo, spec.strategy, cfg);
      row.result = stack.run_exchange(pit->second, time_limit);
      if (journal != nullptr) {
        JournalEntry je;
        je.key = key_for(i);
        je.label = row.system + " " + row.routing;
        je.topo = fingerprint(*spec.topo);
        je.seed = opts.seed;
        je.status = row.result.timed_out ? "timed_out" : "ok";
        je.events = 0;  // ExchangeResult does not count events
        je.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - row_start)
                .count();
        je.throughput = row.result.effective_throughput;
        je.avg_latency_ns = row.result.avg_latency_ns;
        je.exchange_completed = row.result.completed ? 1 : 0;
        je.completion_us = row.result.completion_us;
        je.wedged = row.result.faults.wedged;
        je.payload = render_exchange_row_json(row);
        journal->append(je);
      }
    }

    // An aborted run has no meaningful completion time; an explicit marker
    // beats a misleading 0.0 in the table/CSV/JSON. The three abort modes
    // are distinct: WEDGED = no simulated progress (watchdog), DEADLINE =
    // --point-timeout wall-clock budget expired, TIMEOUT = the simulated
    // time limit elapsed while still progressing.
    const ExchangeResult& r = row.result;
    const char* abort_marker =
        r.faults.wedged ? "WEDGED" : r.timed_out ? "DEADLINE" : "TIMEOUT";
    if (!quiet) {
      t.add(row.system, row.routing,
            r.completed ? fmt(r.effective_throughput, 3) : abort_marker,
            r.completed ? fmt(r.completion_us, 1) : abort_marker);
    }
    out.push_back(std::move(row));
  }
  if (!quiet) {
    t.print(std::cout);
    if (opts.csv) t.print_csv(std::cout);
  }

  SweepRunStats stats;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  stats.points = static_cast<std::int64_t>(out.size());
  stats.restored_points = restored_rows;
  stats.jobs = 1;
  if (restored_rows > 0 && !quiet) {
    std::printf("durability: %lld row(s) restored from journal\n",
                static_cast<long long>(restored_rows));
  }
  if (report != nullptr) report->add_exchange(title, out, stats);
  return out;
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return ThreadPool::hardware_concurrency();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    const std::size_t first = line.find_first_not_of(" \t", colon + 1);
    if (colon == std::string::npos || first == std::string::npos) break;
    std::string model;
    for (const char ch : line.substr(first)) {
      if (ch != '"' && ch != '\\') model += ch;  // keep the JSON string plain
    }
    return model;
  }
  return "unknown";
}

}  // namespace d2net::bench
