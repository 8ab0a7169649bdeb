// Fig. 4: approximate bisection bandwidth per endpoint (units of link
// bandwidth b) via the multilevel partitioner, across network sizes for
// SF (both p roundings), MLFM and OFT.
//
// Note: the heuristic cut is an upper bound on the true bisection; our
// partitioner finds tighter OFT cuts (~0.73 b) than the paper quotes
// (~0.81-0.89 b) while matching the SF (~0.67-0.71 b) and MLFM (~0.5 b)
// levels and the overall ranking. See EXPERIMENTS.md.
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "partition/bisection_bandwidth.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

using namespace d2net;

namespace {

void report(Table& t, const Topology& topo, int seeds) {
  const BisectionBandwidth bb = approximate_bisection_bandwidth(topo, seeds);
  t.add(topo.name(), topo.num_nodes(), static_cast<std::int64_t>(bb.cut_links),
        fmt(bb.per_node, 3));
}

int run(int argc, char** argv) {
  Cli cli("Fig. 4: approximate bisection bandwidth per endpoint");
  cli.flag("seeds", std::int64_t{6}, "partitioner restarts (best cut wins)");
  cli.flag("csv", false, "also print CSV");
  if (!cli.parse(argc, argv)) return 0;
  const int seeds = static_cast<int>(cli.get_int("seeds"));

  std::printf("== Fig. 4: bisection bandwidth per end-node (fraction of b) ==\n");
  std::printf("   paper levels: OFT ~0.81-0.89, SF floor ~0.71, SF ceil ~0.67, MLFM ~0.5\n");
  Table t({"topology", "N", "cut links", "bw per node (b)"});
  for (int q : {5, 7, 9, 11, 13}) {
    report(t, build_slim_fly(q, SlimFlyP::kFloor), seeds);
    report(t, build_slim_fly(q, SlimFlyP::kCeil), seeds);
  }
  for (int h : {5, 7, 9, 11, 13, 15}) report(t, build_mlfm(h), seeds);
  for (int k : {4, 6, 8, 10, 12}) report(t, build_oft(k), seeds);
  t.print(std::cout);
  if (cli.get_bool("csv")) t.print_csv(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
