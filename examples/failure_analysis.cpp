// Failure analysis: inject random link failures into a topology and
// quantify the damage — diameter stretch, bisection loss, and the
// throughput/latency cost under minimal vs adaptive routing — with an
// optional per-packet trace of the degraded run for offline inspection.
//
//   failure_analysis --topo=sf:q=7 --fail-fraction=0.05
//   failure_analysis --topo=oft:k=6 --fail-fraction=0.1 --trace=/tmp/deg.csv
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "partition/bisection_bandwidth.h"
#include "sim/experiment.h"
#include "topology/degrade.h"
#include "topology/properties.h"
#include "topology/spec.h"

using namespace d2net;

namespace {

int run(int argc, char** argv) {
  Cli cli("Quantify the impact of random link failures on a diameter-two network");
  cli.flag("topo", std::string("sf:q=7"), "topology spec");
  cli.flag("fail-fraction", 0.05, "fraction of router-router links to remove");
  cli.flag("load", 0.8, "offered uniform load for the throughput comparison");
  cli.flag("seed", std::int64_t{1}, "seed");
  cli.flag("trace", std::string(""), "write a packet trace CSV of the degraded UGAL run");
  if (!cli.parse(argc, argv)) return 0;

  const Topology healthy = build_topology_from_spec(cli.get_string("topo"));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const int fail_count =
      static_cast<int>(cli.get_double("fail-fraction") * healthy.num_links());
  const DegradeResult deg = remove_random_links(healthy, fail_count, rng);
  std::printf("%s: removed %zu of %d links\n", healthy.name().c_str(), deg.removed.size(),
              healthy.num_links());

  Table s({"metric", "healthy", "degraded"});
  {
    const DistanceMatrix dh = all_pairs_distances(healthy);
    const DistanceMatrix dd = all_pairs_distances(deg.topo);
    s.add("endpoint diameter", node_diameter(healthy, dh), node_diameter(deg.topo, dd));
    s.add("avg router distance", fmt(average_distance(dh), 3), fmt(average_distance(dd), 3));
    s.add("bisection bw per node", fmt(approximate_bisection_bandwidth(healthy).per_node, 3),
          fmt(approximate_bisection_bandwidth(deg.topo).per_node, 3));
  }
  s.print(std::cout);

  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double load = cli.get_double("load");
  UniformTraffic uni(healthy.num_nodes());

  Table t({"network", "routing", "accepted", "mean latency (ns)", "p99 (ns)", "fairness"});
  for (const Topology* topo : {&healthy, &deg.topo}) {
    for (RoutingStrategy strat : {RoutingStrategy::kMinimal, RoutingStrategy::kUgalThreshold}) {
      SimStack stack(*topo, strat, cfg);
      PacketTraceSink trace;
      const bool want_trace = topo == &deg.topo &&
                              strat == RoutingStrategy::kUgalThreshold &&
                              !cli.get_string("trace").empty();
      if (want_trace) stack.sim().set_trace(&trace);
      const OpenLoopResult r = stack.run_open_loop(uni, load, us(20), us(4));
      t.add(topo == &healthy ? "healthy" : "degraded", to_string(strat),
            fmt(r.accepted_throughput, 3), fmt(r.avg_latency_ns, 0), fmt(r.p99_latency_ns, 0),
            fmt(r.jain_fairness, 3));
      if (want_trace) {
        std::ofstream out(cli.get_string("trace"));
        trace.write_csv(out);
        std::printf("wrote %zu trace entries to %s\n", trace.entries().size(),
                    cli.get_string("trace").c_str());
      }
    }
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
