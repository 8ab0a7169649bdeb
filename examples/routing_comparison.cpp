// Routing comparison: sweep offered load on one topology and compare all
// four routing strategies (MIN, INR, UGAL, UGAL-Th) under a chosen traffic
// pattern — the tool behind "which routing should my deployment use?".
//
//   routing_comparison --topo=mlfm:h=7 --pattern=uniform
//   routing_comparison --topo=sf:q=7 --pattern=worst-case --duration-us=24
//   routing_comparison --topo=oft:k=6 --pattern=shift --shift=12
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/spec.h"

using namespace d2net;

namespace {

int run(int argc, char** argv) {
  Cli cli("Compare MIN / INR / UGAL / UGAL-Th on one topology and pattern");
  cli.flag("topo", std::string("mlfm:h=7"), "topology spec");
  cli.flag("pattern", std::string("uniform"), "uniform | worst-case | shift");
  cli.flag("shift", std::int64_t{1}, "node shift for --pattern=shift");
  cli.flag("duration-us", 16.0, "simulated time per point");
  cli.flag("warmup-us", 4.0, "warmup");
  cli.flag("seed", std::int64_t{1}, "seed");
  if (!cli.parse(argc, argv)) return 0;

  const Topology topo = build_topology_from_spec(cli.get_string("topo"));
  const MinimalTable table(topo);
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));

  std::unique_ptr<TrafficPattern> pattern;
  const std::string pname = cli.get_string("pattern");
  if (pname == "uniform") {
    pattern = std::make_unique<UniformTraffic>(topo.num_nodes());
  } else if (pname == "worst-case") {
    pattern = make_worst_case(topo, table, rng);
  } else if (pname == "shift") {
    pattern = make_node_shift(topo.num_nodes(), static_cast<int>(cli.get_int("shift")));
  } else {
    std::fprintf(stderr, "unknown pattern '%s'\n", pname.c_str());
    return 1;
  }

  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const TimePs duration = us(cli.get_double("duration-us"));
  const TimePs warmup = us(cli.get_double("warmup-us"));
  const std::vector<double> loads{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

  std::printf("== %s under %s traffic ==\n", topo.name().c_str(), pattern->name().c_str());
  Table t({"load", "MIN thr", "MIN lat", "INR thr", "INR lat", "UGAL thr", "UGAL lat",
           "UGAL-Th thr", "UGAL-Th lat"});
  std::vector<std::unique_ptr<SimStack>> stacks;
  for (RoutingStrategy s : {RoutingStrategy::kMinimal, RoutingStrategy::kValiant,
                            RoutingStrategy::kUgal, RoutingStrategy::kUgalThreshold}) {
    stacks.push_back(std::make_unique<SimStack>(topo, s, cfg));
  }
  for (double load : loads) {
    std::vector<std::string> row{fmt(load, 2)};
    for (auto& stack : stacks) {
      const OpenLoopResult r = stack->run_open_loop(*pattern, load, duration, warmup);
      row.push_back(fmt(r.accepted_throughput, 3));
      row.push_back(fmt(r.avg_latency_ns, 0));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
