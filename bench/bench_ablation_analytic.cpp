// Ablation: analytic expected-link-load bounds vs simulated saturation.
//
// Section 4.2 of the paper derives the worst-case saturation points
// (1/2p, 1/h, 1/k) by hand; our link-load model generalizes that
// derivation to any oblivious routing + pattern, and this bench
// cross-validates it against the flit-accurate simulator for every paper
// configuration under uniform and worst-case traffic, MIN and INR.
#include <cstdio>
#include <iostream>

#include "analysis/link_load.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "routing/valiant_routing.h"
#include "sim/traffic.h"

using namespace d2net;
using namespace d2net::bench;

namespace {

int run(int argc, char** argv) {
  Cli cli("Ablation: analytic link-load bound vs simulated saturation");
  // A serial, unjournaled table: only the scale flags mean anything here,
  // so only they are accepted.
  add_scale_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchOptions opts = read_scale_flags(cli);

  SimConfig cfg;
  cfg.seed = opts.seed;

  std::printf("== analytic throughput bound vs simulated accepted throughput @ load 1.0 ==\n");
  Table t({"system", "pattern", "routing", "analytic bound", "simulated", "delta",
           "link corr", "link max|err|"});
  for (const auto& sys : paper_systems(opts.full)) {
    const MinimalTable table(sys.topo);
    Rng rng(opts.seed);
    const auto wc = make_worst_case(sys.topo, table, rng);
    const UniformTraffic uni(sys.topo.num_nodes());
    const auto vias = valiant_intermediates(sys.topo);

    // Uniform permutation proxy for the INR/uniform row: a random
    // permutation's analytic INR load matches uniform traffic closely.
    for (const bool worst_case : {false, true}) {
      for (RoutingStrategy s : {RoutingStrategy::kMinimal, RoutingStrategy::kValiant}) {
        LinkLoadReport analytic;
        if (s == RoutingStrategy::kMinimal) {
          analytic = worst_case ? minimal_link_loads(sys.topo, table, wc->permutation())
                                : minimal_link_loads_uniform(sys.topo, table);
        } else {
          if (!worst_case) continue;  // INR/uniform: no closed permutation form here
          analytic = valiant_link_loads(sys.topo, table, wc->permutation(), vias);
        }
        SimStack stack(sys.topo, s, cfg);
        const TrafficPattern& pattern =
            worst_case ? static_cast<const TrafficPattern&>(*wc)
                       : static_cast<const TrafficPattern&>(uni);
        const OpenLoopResult sim =
            stack.run_open_loop(pattern, 1.0, opts.duration, opts.warmup);
        // Per-link agreement: the channel_stats order matches the analytic
        // report's (router, port) channel order. The network runs at its
        // accepted (not offered) rate at saturation, so compare expected
        // utilizations at that effective injection fraction.
        std::vector<double> observed;
        for (const auto& ch : stack.sim().channel_stats()) {
          observed.push_back(ch.utilization);
        }
        const LinkLoadComparison cmp = compare_link_loads(
            analytic, observed, std::max(sim.accepted_throughput, 1e-9));
        t.add(sys.label, worst_case ? "WC" : "UNI", to_string(s),
              fmt(analytic.throughput_bound, 3), fmt(sim.accepted_throughput, 3),
              fmt(sim.accepted_throughput - analytic.throughput_bound, 3),
              fmt(cmp.correlation, 3), fmt(cmp.max_abs_error, 3));
      }
    }
  }
  t.print(std::cout);
  if (opts.csv) t.print_csv(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
