// Quickstart: build a diameter-two topology, inspect it, attach adaptive
// routing, and measure throughput/latency under uniform and adversarial
// traffic — the library's core loop in ~60 lines.
#include <cstdio>

#include "common/cli.h"
#include "common/rng.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/oft.h"

using namespace d2net;

namespace {

int run(int /*argc*/, char** /*argv*/) {
  // 1. Build a two-level Orthogonal Fat-Tree with k = 6:
  //    31 routers per level, 372 endpoints, every router radix 12.
  const Topology topo = build_oft(6);
  std::printf("built %s: %d endpoints, %d routers, %.1f ports/endpoint\n",
              topo.name().c_str(), topo.num_nodes(), topo.num_routers(),
              topo.ports_per_node());

  // 2. Assemble a simulation stack. SimStack wires together the minimal
  //    routing table, the UGAL-L adaptive algorithm with the paper's tuned
  //    parameters, VC-based deadlock avoidance and the flit-accurate
  //    credit-flow simulator.
  SimConfig cfg;  // paper defaults: 100 Gb/s links, 50 ns wires, 100 ns routers
  SimStack stack(topo, RoutingStrategy::kUgalThreshold, cfg);

  // 3. Uniform random traffic at 90% injection: adaptive routing should
  //    deliver nearly all of it minimally.
  UniformTraffic uniform(topo.num_nodes());
  const OpenLoopResult uni = stack.run_open_loop(uniform, 0.9, us(20), us(4));
  std::printf("uniform @0.9: accepted %.3f, mean latency %.0f ns, %.0f%% minimal\n",
              uni.accepted_throughput, uni.avg_latency_ns, 100 * uni.fraction_minimal);

  // 4. The OFT's worst case (Section 4.2): every endpoint of router i sends
  //    to the corresponding endpoint of router i+1 — minimal routing would
  //    collapse to 1/k, but UGAL diverts over random intermediates.
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const OpenLoopResult adv = stack.run_open_loop(*wc, 0.4, us(20), us(4));
  std::printf("worst-case @0.4: accepted %.3f, mean latency %.0f ns, %.0f%% minimal\n",
              adv.accepted_throughput, adv.avg_latency_ns, 100 * adv.fraction_minimal);

  // 5. For reference, the same adversary under oblivious minimal routing.
  SimStack minimal(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult min_adv = minimal.run_open_loop(*wc, 0.4, us(20), us(4));
  std::printf("worst-case @0.4 with MIN: accepted %.3f (the 1/k collapse)\n",
              min_adv.accepted_throughput);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
