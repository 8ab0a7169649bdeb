// Flow-engine performance snapshot (see docs/flow_engine.md): flows/sec
// and wall time for representative scenarios, from bench-scale sanity
// (SF q=7, exact and batched rate recompute) up to the >= 10^5-endpoint
// acceptance scenarios the engine exists for — a Slim Fly q=43 (118,336
// endpoints) open-loop sweep point and the fluid all-to-all model at the
// same scale.
//
//   bench_micro_flow               human-readable timings
//   bench_micro_flow --json=PATH   flat JSON snapshot (the BENCH_flow.json
//                                  artifact scripts/ci.sh stage 5 diffs
//                                  against, warn-only; see docs/perf.md)
//   bench_micro_flow --skip-large  bench-scale scenarios only (the q=43
//                                  runs need a few GB and tens of seconds)
//
// Deterministic result fields (accepted throughput, completion time) are
// exact for a given seed; only the wall-clock fields are machine-noisy, so
// the snapshot records the host (cores, cpu_model) they were measured on.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "flowsim/flow_sim.h"
#include "routing/minimal_table.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct OpenLoopTiming {
  double wall_seconds = 0.0;
  double flows_per_sec = 0.0;
  double accepted = 0.0;
  std::int64_t flows = 0;
};

/// One open-loop point under the flow engine; best wall time of `reps`.
/// The simulation itself is deterministic, so `accepted` and `flows` are
/// identical across reps — only the timing varies.
OpenLoopTiming time_open_loop(const Topology& topo, double load, TimePs duration,
                              TimePs warmup, TimePs rate_interval, int reps) {
  OpenLoopTiming out;
  out.wall_seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    SimConfig cfg;
    cfg.engine = SimEngine::kFlow;
    cfg.flow.rate_interval = rate_interval;
    SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
    UniformTraffic uni(topo.num_nodes());
    const double t0 = now_seconds();
    const OpenLoopResult res = stack.run_open_loop(uni, load, duration, warmup);
    const double dt = now_seconds() - t0;
    out.wall_seconds = std::min(out.wall_seconds, dt);
    out.accepted = res.accepted_throughput;
    out.flows = res.packets_injected;
    if (dt > 0.0) {
      out.flows_per_sec = std::max(
          out.flows_per_sec, static_cast<double>(res.packets_injected) / dt);
    }
  }
  return out;
}

int run(const std::string& json_path, bool skip_large) {
  // Bench-scale sanity on the BENCH_core.json topology (SF q=7, uniform,
  // seed 1), one scenario per recompute mode in its intended regime:
  // exact per-event local repair below the knee (repairs stay local),
  // batched ticks at saturation (where repairs widen over the saturated
  // links and some fall back to a network-spanning recompute).
  const Topology q7 = build_slim_fly(7);
  const OpenLoopTiming exact = time_open_loop(q7, 0.5, us(16), us(4), 0, 3);
  std::printf("sf q=7 load 0.5 exact:   %8.0f flows/s  wall %.2fs  accepted %.3f\n",
              exact.flows_per_sec, exact.wall_seconds, exact.accepted);
  std::fflush(stdout);
  const OpenLoopTiming batched =
      time_open_loop(q7, 0.9, us(16), us(4), ns(200), 3);
  std::printf("sf q=7 load 0.9 batched: %8.0f flows/s  wall %.2fs  accepted %.3f\n",
              batched.flows_per_sec, batched.wall_seconds, batched.accepted);
  std::fflush(stdout);

  // The >= 10^5-endpoint acceptance scenarios (SF q=43: R=3698, p=32,
  // N=118,336). Open loop runs below the saturation knee with batched
  // recompute; the all-to-all uses the closed-form fluid model.
  OpenLoopTiming large;
  double a2a_wall = 0.0;
  double a2a_completion_us = 0.0;
  if (!skip_large) {
    const Topology q43 = build_slim_fly(43);
    std::printf("sf q=43: N=%d endpoints, %d routers\n", q43.num_nodes(),
                q43.num_routers());
    large = time_open_loop(q43, 0.7, us(4), us(1), ns(500), 1);
    std::printf("sf q=43 open loop:   %8.0f flows/s  wall %.2fs  accepted %.3f "
                "(%lld flows)\n",
                large.flows_per_sec, large.wall_seconds, large.accepted,
                static_cast<long long>(large.flows));

    SimConfig cfg;
    cfg.engine = SimEngine::kFlow;
    SimStack stack(q43, RoutingStrategy::kMinimal, cfg);
    const double t0 = now_seconds();
    const ExchangeResult a2a = stack.run_fluid_all_to_all(4096);
    a2a_wall = now_seconds() - t0;
    a2a_completion_us = a2a.completion_us;
    std::printf("sf q=43 all-to-all (fluid): completion %.1f us  wall %.2fs\n",
                a2a.completion_us, a2a_wall);
  }

  if (json_path.empty()) return 0;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_flow: cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_micro_flow\",\n");
  std::fprintf(f, "  \"cores\": %d,\n", bench::usable_cores());
  std::fprintf(f, "  \"cpu_model\": \"%s\",\n", bench::cpu_model().c_str());
  std::fprintf(f,
               "  \"scenario\": \"slim_fly q=7, uniform, MIN, 16us run / 4us "
               "warmup, seed 1, best of 3; exact recompute at load 0.5, "
               "0.2us batched ticks at load 0.9\",\n");
  std::fprintf(f, "  \"flows_per_sec_exact\": %.0f,\n", exact.flows_per_sec);
  std::fprintf(f, "  \"accepted_exact\": %.6f,\n", exact.accepted);
  std::fprintf(f, "  \"flows_per_sec_batched\": %.0f,\n", batched.flows_per_sec);
  std::fprintf(f, "  \"accepted_batched\": %.6f,\n", batched.accepted);
  std::fprintf(f,
               "  \"large_scenario\": \"slim_fly q=43 (118336 endpoints), "
               "uniform, MIN, load 0.7, 4us run / 1us warmup, 0.5us rate "
               "interval, seed 1, single run; all-to-all 4096 B/pair via the "
               "fluid model\",\n");
  std::fprintf(f, "  \"skip_large\": %s,\n", skip_large ? "true" : "false");
  std::fprintf(f, "  \"flows_per_sec_q43_open_loop\": %.0f,\n",
               large.flows_per_sec);
  std::fprintf(f, "  \"wall_seconds_q43_open_loop\": %.2f,\n",
               large.wall_seconds == 1e300 ? 0.0 : large.wall_seconds);
  std::fprintf(f, "  \"accepted_q43_open_loop\": %.6f,\n", large.accepted);
  std::fprintf(f, "  \"wall_seconds_q43_all_to_all\": %.2f,\n", a2a_wall);
  std::fprintf(f, "  \"completion_us_q43_all_to_all\": %.2f\n",
               a2a_completion_us);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("-> %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace d2net

namespace {

int cli_main(int argc, char** argv) {
  std::string json_path;
  bool skip_large = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--skip-large") {
      skip_large = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_flow [--json=PATH] [--skip-large]\n");
      return 1;
    }
  }
  return d2net::run(json_path, skip_large);
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(cli_main, argc, argv); }
