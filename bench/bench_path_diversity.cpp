// Section 2.3.3: diversity of shortest paths. The paper quotes, for the SF
// with q = 23, a mean of ~1.1 minimal paths between non-adjacent router
// pairs with a maximum of 8; for the MLFM, h paths between same-column LR
// pairs and 1 otherwise; for the OFT, k paths between symmetric L0/L2
// counterparts and 1 otherwise.
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/properties.h"
#include "topology/slim_fly.h"

using namespace d2net;

namespace {

void report(Table& t, const Topology& topo) {
  const PathDiversityStats d2 = path_diversity_at_distance(topo, 2);
  t.add(topo.name(), static_cast<std::int64_t>(d2.pairs), fmt(d2.mean, 3),
        static_cast<std::int64_t>(d2.max), static_cast<std::int64_t>(d2.pairs_with_diversity));
}

int run(int argc, char** argv) {
  Cli cli("Section 2.3.3: minimal-path diversity at distance 2");
  cli.flag("sf-q23", false, "include the paper's q = 23 SF data point (slow-ish)");
  if (!cli.parse(argc, argv)) return 0;

  std::printf("== Minimal-path diversity between routers at distance 2 ==\n");
  std::printf("   paper: SF q=23 mean ~1.1, max 8; MLFM column pairs h paths; OFT\n");
  std::printf("   symmetric pairs k paths; all other pairs a single path\n");
  Table t({"topology", "dist-2 pairs", "mean paths", "max", "pairs >1 path"});
  for (int q : {7, 11, 13}) report(t, build_slim_fly(q));
  if (cli.get_bool("sf-q23")) report(t, build_slim_fly(23));
  for (int h : {7, 15}) report(t, build_mlfm(h));
  for (int k : {6, 12}) report(t, build_oft(k));
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
