// Fig. 3: scalability (endpoints vs router radix) and per-endpoint cost of
// the low-diameter topologies — the plot's curves as a table, plus the
// embedded cost comparison (diameter, links/endpoint, ports/endpoint).
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "topology/cost_model.h"

using namespace d2net;

namespace {

int run(int argc, char** argv) {
  Cli cli("Fig. 3: scale and cost of low-diameter topologies vs router radix");
  cli.flag("csv", false, "also print CSV");
  if (!cli.parse(argc, argv)) return 0;

  std::printf("== Fig. 3 (curves): max endpoints per family vs router radix ==\n");
  const std::vector<std::string> families{"HyperX2D", "SF(floor)", "SF(ceil)", "FT2",
                                          "FT3",      "MLFM",      "OFT",      "Dragonfly"};
  Table t([&] {
    std::vector<std::string> h{"radix"};
    for (const auto& f : families) h.push_back(f);
    h.push_back("Moore-bound*p");
    return h;
  }());
  for (int r : {16, 24, 32, 40, 48, 56, 64, 80, 96}) {
    std::vector<std::string> row{std::to_string(r)};
    const auto points = max_scale_at_radix(r);
    for (const auto& fam : families) {
      std::string cell = "-";
      for (const auto& pt : points) {
        if (pt.family == fam) cell = std::to_string(pt.num_nodes);
      }
      row.push_back(cell);
    }
    // Diameter-2 Moore bound on routers, times p = r/3 endpoints each.
    row.push_back(std::to_string(moore_bound_d2(2 * r / 3) * (r / 3)));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  if (cli.get_bool("csv")) t.print_csv(std::cout);

  std::printf("\n== Fig. 3 (table): diameter and cost per endpoint at radix 48 ==\n");
  Table c({"topology", "config", "diam", "scale N", "links/N", "ports/N"});
  for (const auto& pt : max_scale_at_radix(48)) {
    c.add(pt.family, pt.config, pt.diameter, pt.num_nodes, fmt(pt.links_per_node, 2),
          fmt(pt.ports_per_node, 2));
  }
  c.print(std::cout);

  std::printf(
      "\n== Section 2.3.1 headline: radix-64 router scalability ==\n"
      "  (paper: OFT ~63.5K, MLFM ~36K, SF ~33.7K)\n");
  Table h({"topology", "config", "N"});
  for (const auto& pt : max_scale_at_radix(64)) {
    if (pt.family == "OFT" || pt.family == "MLFM" || pt.family == "SF(floor)") {
      h.add(pt.family, pt.config, pt.num_nodes);
    }
  }
  h.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
