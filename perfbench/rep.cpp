// One repetition of a perfbench workload (see README.md): builds the
// workload's topology, minimal table, traffic and simulation stack through
// the library's public calls, runs its points serially for a fixed number
// of passes on that one stack, and prints one JSON line with the spans it
// recorded around every layer call plus the raw simulated results. Pass 0
// is the warm-up: it pays the first touch of the engine's pools, and run.py
// times the engine from the later passes only. run.py repeats this process,
// checks the results and reduces the repetitions to the benchmark's metrics.
//
//   perfbench_rep --workload NAME --seed N [--traced]
//
// Spans are always recorded: they time the layer calls the end-to-end
// metrics are made of, and cost a clock read each. --traced additionally
// enables SimConfig::metrics on the packet engine (the sim.* counters) and
// times route_into with a probe after the workload.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "routing/factory.h"
#include "routing/minimal_table.h"
#include "routing/routing_algorithm.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/spec.h"

namespace d2net::perfbench {
namespace {

enum class PointKind { kOpenLoop, kFluidAllToAll };

struct PointSpec {
  const char* name;
  PointKind kind;
  bool worst_case;  ///< open loop: Section 4.2 worst-case permutation, else uniform
  double load;      ///< open loop: offered load
};

struct WorkloadSpec {
  const char* name;
  const char* topology;
  RoutingStrategy strategy;
  SimEngine engine;
  TimePs rate_interval;  ///< flow engine: 0 = exact recompute
  TimePs duration;
  TimePs warmup;
  int passes;  ///< passes over the points; pass 0 is the warm-up
  std::vector<PointSpec> points;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
// Durations are fixed simulated time, so every repetition does the same
// work and peak RSS compares at equal run length. Every pass re-runs the
// points from the same seed on the same stack, so all passes simulate the
// same thing.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"packet_sf13", "sf:q=13", RoutingStrategy::kUgal, SimEngine::kPacket, 0, us(3), us(1), 4,
       {{"uniform", PointKind::kOpenLoop, false, 0.7},
        {"worst_case", PointKind::kOpenLoop, true, 0.3}}},
      {"flow_exact_sf7", "sf:q=7", RoutingStrategy::kMinimal, SimEngine::kFlow, 0, us(3),
       us(1), 4,
       {{"uniform", PointKind::kOpenLoop, false, 0.5},
        {"a2a", PointKind::kFluidAllToAll, false, 0.0}}},
  };
  return specs;
}

/// Open-loop points are bounded by a cooperative wall-clock deadline so a
/// wedged or pathologically slow build still ends inside run.py's budget;
/// a point that hits it is reported as timed out and fails its check.
constexpr double kPointWallLimitSeconds = 100.0;

/// Derived seeds tried for the worst-case permutation before giving up.
constexpr int kWorstCaseAttempts = 16;

/// Fluid all-to-all message size per node pair.
constexpr std::int64_t kA2aBytesPerPair = 4096;

/// Routing probe: route_into over a fixed, seeded sample of router pairs,
/// repeated until this much host time has passed.
constexpr int kProbePairs = 1 << 16;
constexpr double kProbeSeconds = 0.25;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set size in MiB from /proc/self/statm (0 when unavailable).
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Host-speed probe: a fixed amount of work, independent of the simulator,
/// timed between the workload's phases. Other tenants of a shared host slow
/// the whole core for tens of seconds at a time (a pure ALU loop by up to
/// 20%, DRAM-bound loads by more); run.py divides each phase's time by the
/// probes around it, which cancels most of that drift. The work is a chain
/// of dependent loads over a 96 MiB random cycle (larger than this host's
/// share of the last-level cache, like the packet engine's pools) followed
/// by a dependent integer hash chain.
class HostProbe {
 public:
  HostProbe() : next_(kBytes / sizeof(std::uint32_t)) {
    // Sattolo's shuffle: a single cycle through every slot, fixed seed.
    for (std::size_t i = 0; i < next_.size(); ++i) next_[i] = static_cast<std::uint32_t>(i);
    Rng rng(0x686f737450726f62ULL);
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.next_below(i)]);
    }
  }

  /// One round of the probe's work; the caller times it.
  void run() {
    std::uint32_t at = at_;
    for (int i = 0; i < kLoads; ++i) at = next_[at];
    std::uint64_t h = at;
    for (int i = 0; i < kHashes; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      h ^= h >> 29;
    }
    at_ = at;
    sink_ += h;  // printed, so the hash chain cannot be elided
  }

  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::size_t kBytes = std::size_t{96} << 20;
  static constexpr int kLoads = 500000;
  static constexpr int kHashes = 40000000;
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  std::uint64_t sink_ = 0;
};

/// In-memory span list: name, start, end (seconds on the steady clock) and
/// the index of the parent span (-1 for the root).
class Spans {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }

  void write_json(std::FILE* out) const {
    std::fputs("[", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%s{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start, s.end, s.parent);
    }
    std::fputs("]", out);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  std::vector<Span> spans_;
};

struct PointResult {
  std::string name;
  std::string error;  ///< exception text when the point threw
  bool open_loop = true;
  bool passes_agree = true;  ///< every later pass reproduced pass 0's results
  double offered = 0.0;
  OpenLoopResult open;
  ExchangeResult a2a;
};

std::int64_t delivered(const OpenLoopResult& r) {
  const RunPhaseBreakdown& ph = r.phases;
  return ph.delivered_warmup + ph.delivered_measured + ph.delivered_carryover;
}

/// Whether `b`, a later pass of the same point, reproduces `a`'s results.
bool same_results(const PointResult& a, const PointResult& b) {
  if (a.error != b.error) return false;
  if (!a.open_loop) {
    return a.a2a.completed == b.a2a.completed && a.a2a.completion_us == b.a2a.completion_us &&
           a.a2a.delivered_bytes == b.a2a.delivered_bytes;
  }
  const OpenLoopResult& x = a.open;
  const OpenLoopResult& y = b.open;
  return x.events_processed == y.events_processed && x.packets_injected == y.packets_injected &&
         delivered(x) == delivered(y) && x.phases.in_flight_at_end == y.phases.in_flight_at_end &&
         x.accepted_throughput == y.accepted_throughput &&
         x.fraction_minimal == y.fraction_minimal;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double probe_route_ns(const Topology& topo, const MinimalTable& table,
                      RoutingStrategy strategy, std::uint64_t seed) {
  const ZeroLoadProvider zero;
  const auto algo = make_routing(topo, table, strategy, zero);
  Rng pair_rng(seed ^ 0x70726f6265ULL);
  const auto routers = static_cast<std::uint64_t>(topo.num_routers());
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(kProbePairs);
  while (static_cast<int>(pairs.size()) < kProbePairs) {
    const int a = static_cast<int>(pair_rng.next_below(routers));
    const int b = static_cast<int>(pair_rng.next_below(routers));
    if (a != b) pairs.emplace_back(a, b);
  }
  Rng route_rng(seed);
  Route route;
  std::int64_t routes = 0;
  std::int64_t hops = 0;  // consumed below so the loop cannot be elided
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    for (const auto& [a, b] : pairs) {
      algo->route_into(a, b, route_rng, route);
      hops += route.hops();
    }
    routes += kProbePairs;
    elapsed = now_s() - t0;
  } while (elapsed < kProbeSeconds);
  if (hops <= 0) return 0.0;
  return elapsed * 1e9 / static_cast<double>(routes);
}

void write_open_loop(std::FILE* out, const PointResult& p, TimePs duration) {
  const OpenLoopResult& r = p.open;
  const RunPhaseBreakdown& ph = r.phases;
  std::fprintf(out,
               "\"offered\":%.17g,\"accepted\":%.17g,\"events\":%lld,\"injected\":%lld,"
               "\"delivered\":%lld,\"in_flight\":%lld,\"fraction_minimal\":%.17g,"
               "\"avg_hops\":%.17g,\"timed_out\":%s,\"wedged\":%s",
               p.offered, r.accepted_throughput, static_cast<long long>(r.events_processed),
               static_cast<long long>(r.packets_injected), static_cast<long long>(delivered(r)),
               static_cast<long long>(ph.in_flight_at_end), r.fraction_minimal, r.avg_hops,
               r.timed_out ? "true" : "false", r.faults.wedged ? "true" : "false");
  if (r.metrics == nullptr) return;
  const SimMetrics& m = *r.metrics;
  const auto counter = [&m](const char* name) -> long long {
    const MetricsRegistry::Counter* c = m.registry.find_counter(name);
    return c == nullptr ? 0 : static_cast<long long>(c->value);
  };
  TimePs stall_ps = 0;
  long long network_ports = 0;
  for (const PortMetrics& pm : m.ports) {
    if (pm.peer_router < 0) continue;
    stall_ps += pm.credit_stall_ps;
    ++network_ports;
  }
  std::fprintf(out,
               ",\"metrics\":{\"grants\":%lld,\"credit_blocked_skips\":%lld,"
               "\"injection_credit_stalls\":%lld,\"credit_stall_ps\":%lld,"
               "\"port_time_ps\":%lld,\"pool_slots\":%lld}",
               counter("grants"), counter("credit_blocked_skips"),
               counter("injection_credit_stalls"), static_cast<long long>(stall_ps),
               network_ports * static_cast<long long>(duration),
               static_cast<long long>(m.capacities.packet_pool_slots));
}

int run(const WorkloadSpec& w, std::uint64_t seed, bool traced) {
  // A fixed mmap threshold keeps glibc from raising it after the first big
  // free, so large tables are always fresh mappings and the RSS delta
  // around the MinimalTable constructor is the table's own footprint.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  SimConfig cfg;
  cfg.engine = w.engine;
  cfg.flow.rate_interval = w.rate_interval;
  cfg.seed = seed;
  cfg.shards = 1;
  cfg.wall_limit_seconds = kPointWallLimitSeconds;
  cfg.metrics.enabled = traced && w.engine == SimEngine::kPacket;

  // The probe's cycle stays resident for the whole run; its pages are
  // subtracted from the reported peak RSS.
  const double rss_before_probe = rss_mb();
  HostProbe probe;
  const double probe_mb = rss_mb() - rss_before_probe;

  Spans spans;
  const int root = spans.open(w.name, -1);
  const auto run_probe = [&] {
    const int probe_id = spans.open("host.probe", root);
    probe.run();
    spans.close(probe_id);
  };

  run_probe();
  int id = spans.open("topology.build", root);
  const Topology topo = build_topology_from_spec(w.topology);
  spans.close(id);

  const double rss_before_table = rss_mb();
  id = spans.open("routing.table", root);
  const auto table = std::make_shared<const MinimalTable>(topo);
  spans.close(id);
  const double table_mb = rss_mb() - rss_before_table;

  // The seed generates the worst-case permutation here and, through
  // SimConfig::seed, every engine's arrival and routing streams. The Slim
  // Fly greedy pairing in make_worst_case dead-ends for some shuffle orders
  // (InternalError "no destination left for router pairing", about one
  // seed in ten at q=13); the permutation then comes from the next derived
  // seed, so every benchmark seed yields valid inputs.
  id = spans.open("sim.traffic", root);
  const UniformTraffic uniform(topo.num_nodes());
  std::unique_ptr<PermutationTraffic> worst;
  int wc_attempts = 0;
  for (const PointSpec& p : w.points) {
    while (p.worst_case && worst == nullptr) {
      Rng rng(seed + static_cast<std::uint64_t>(wc_attempts) * 0x9E3779B97F4A7C15ULL);
      ++wc_attempts;
      try {
        worst = make_worst_case(topo, *table, rng);
      } catch (const InternalError&) {
        if (wc_attempts >= kWorstCaseAttempts) throw;
      }
    }
  }
  spans.close(id);
  std::uint64_t inputs_digest = 0xcbf29ce484222325ULL;
  if (worst != nullptr) {
    for (int d : worst->permutation()) inputs_digest = fnv1a(inputs_digest, d);
  }

  id = spans.open("sim.stack", root);
  SimStack stack(topo, table, w.strategy, cfg);
  spans.close(id);
  run_probe();

  // Pass 0's results are the ones reported; later passes must reproduce them.
  std::vector<PointResult> results;
  for (int pass = 0; pass < w.passes; ++pass) {
    const int pass_id = spans.open("pass." + std::to_string(pass), root);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const PointSpec& p = w.points[i];
      PointResult res;
      res.name = p.name;
      res.offered = p.load;
      res.open_loop = p.kind == PointKind::kOpenLoop;
      id = spans.open(std::string("engine.") + p.name, pass_id);
      try {
        if (res.open_loop) {
          const TrafficPattern& pattern =
              p.worst_case ? static_cast<const TrafficPattern&>(*worst) : uniform;
          res.open = stack.run_open_loop(pattern, p.load, w.duration, w.warmup);
        } else {
          res.a2a = stack.run_fluid_all_to_all(kA2aBytesPerPair);
        }
      } catch (const std::exception& e) {
        res.error = e.what();
      }
      spans.close(id);
      if (pass == 0) {
        results.push_back(std::move(res));
      } else if (!same_results(results[i], res)) {
        results[i].passes_agree = false;
      }
    }
    spans.close(pass_id);
    run_probe();
  }

  double route_ns = 0.0;
  if (traced) {
    id = spans.open("routing.probe", root);
    route_ns = probe_route_ns(topo, *table, w.strategy, seed);
    spans.close(id);
  }
  spans.close(root);

  std::FILE* out = stdout;
  std::fprintf(out,
               "{\"workload\":\"%s\",\"engine\":\"%s\",\"seed\":%llu,\"config_seed\":%llu,"
               "\"traced\":%s,\"routers\":%d,\"nodes\":%d,\"inputs_digest\":\"%016llx\","
               "\"worst_case_attempts\":%d,\"passes\":%d,"
               "\"table_mb\":%.17g,\"route_ns\":%.17g,\"peak_rss_mb\":%.17g,"
               "\"probe_mb\":%.17g,\"probe_sink\":%llu,\"compiler\":\"%s\",\"build_type\":\"%s\",\"points\":[",
               w.name, w.engine == SimEngine::kFlow ? "flow" : "packet",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(cfg.seed), traced ? "true" : "false",
               topo.num_routers(), topo.num_nodes(),
               static_cast<unsigned long long>(inputs_digest), wc_attempts, w.passes, table_mb,
               route_ns, peak_rss_mb() - probe_mb, probe_mb,
               static_cast<unsigned long long>(probe.sink()), __VERSION__, PERFBENCH_BUILD_TYPE);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& p = results[i];
    std::fprintf(out, "%s{\"name\":\"%s\",\"kind\":\"%s\",\"passes_agree\":%s,",
                 i == 0 ? "" : ",", p.name.c_str(), p.open_loop ? "open_loop" : "fluid_a2a",
                 p.passes_agree ? "true" : "false");
    if (!p.error.empty()) {
      // Exception texts are library messages; keep them JSON-safe.
      std::string msg;
      for (char c : p.error) msg += (c == '"' || c == '\\' || c < 0x20) ? '\'' : c;
      std::fprintf(out, "\"error\":\"%s\"}", msg.c_str());
      continue;
    }
    if (p.open_loop) {
      write_open_loop(out, p, w.duration);
    } else {
      std::fprintf(out,
                   "\"completed\":%s,\"completion_us\":%.17g,\"timed_out\":%s,"
                   "\"total_bytes\":%lld,\"delivered_bytes\":%lld",
                   p.a2a.completed ? "true" : "false", p.a2a.completion_us,
                   p.a2a.timed_out ? "true" : "false",
                   static_cast<long long>(p.a2a.total_bytes),
                   static_cast<long long>(p.a2a.delivered_bytes));
    }
    std::fputs("}", out);
  }
  std::fputs("],\"spans\":", out);
  spans.write_json(out);
  std::fputs("}\n", out);
  return 0;
}

int usage() {
  std::fputs("usage: perfbench_rep --workload NAME --seed N [--traced]\n", stderr);
  return 2;
}

}  // namespace
}  // namespace d2net::perfbench

int main(int argc, char** argv) {
  using namespace d2net::perfbench;
  std::string workload;
  std::string seed_text;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed_text = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return usage();
    }
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (seed_text.empty() || *end != '\0' || seed_text[0] == '-') return usage();
  for (const WorkloadSpec& w : workloads()) {
    if (workload != w.name) continue;
    try {
      return run(w, seed, traced);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_rep: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "perfbench_rep: unknown workload '%s'\n", workload.c_str());
  return usage();
}
