// Topology explorer: build any supported network from a command-line spec
// and print its full structural report — scale, cost, diameter, bisection
// bandwidth, minimal-path diversity — plus the Section 3.4 deadlock-freedom
// verdicts for its routing family.
//
//   topology_explorer --topo=sf:q=11
//   topology_explorer --topo=mlfm:h=9 --deadlock=false
//   topology_explorer --topo=oft:k=8 --compare=sf:q=9 --compare2=mlfm:h=8
#include <cstdio>
#include <iostream>

#include <fstream>

#include "analysis/topology_report.h"
#include "common/cli.h"
#include "topology/io.h"
#include "topology/spec.h"

using namespace d2net;

namespace {

void report_one(const std::string& spec, bool deadlock) {
  const Topology topo = build_topology_from_spec(spec);
  std::printf("\n== %s ==\n", topo.name().c_str());
  print_topology_report(analyze_topology(topo), std::cout);
  if (deadlock) {
    std::printf("deadlock-freedom (CDG checks):\n");
    print_deadlock_report(check_deadlock_freedom(topo), std::cout);
  }
}

int run(int argc, char** argv) {
  Cli cli(std::string("Structural analysis of diameter-two topologies. ") +
          topology_spec_help());
  cli.flag("topo", std::string("oft:k=6"), "topology spec");
  cli.flag("compare", std::string(""), "optional second spec to analyze");
  cli.flag("compare2", std::string(""), "optional third spec to analyze");
  cli.flag("deadlock", true, "run the CDG deadlock checks (costlier)");
  cli.flag("dot", std::string(""), "write the primary topology as Graphviz DOT to this file");
  if (!cli.parse(argc, argv)) return 0;

  report_one(cli.get_string("topo"), cli.get_bool("deadlock"));
  if (!cli.get_string("dot").empty()) {
    std::ofstream out(cli.get_string("dot"));
    write_dot(build_topology_from_spec(cli.get_string("topo")), out);
    std::printf("wrote %s\n", cli.get_string("dot").c_str());
  }
  if (!cli.get_string("compare").empty()) {
    report_one(cli.get_string("compare"), cli.get_bool("deadlock"));
  }
  if (!cli.get_string("compare2").empty()) {
    report_one(cli.get_string("compare2"), cli.get_bool("deadlock"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
