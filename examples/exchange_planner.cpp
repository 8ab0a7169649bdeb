// Exchange planner: estimate completion time and effective throughput of
// collective exchanges (all-to-all, 3-D-torus nearest-neighbor) on a chosen
// topology and routing — the workloads HPC applications actually run
// (paper Section 4.4).
//
//   exchange_planner --topo=oft:k=6 --exchange=a2a --bytes=7680
//   exchange_planner --topo=mlfm:h=7 --exchange=nn --bytes=65536 --routing=ugal-th
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "sim/exchange.h"
#include "sim/experiment.h"
#include "topology/spec.h"

using namespace d2net;

namespace {

RoutingStrategy parse_strategy(const std::string& s) {
  if (s == "min") return RoutingStrategy::kMinimal;
  if (s == "inr") return RoutingStrategy::kValiant;
  if (s == "ugal") return RoutingStrategy::kUgal;
  if (s == "ugal-th") return RoutingStrategy::kUgalThreshold;
  throw ArgumentError("unknown routing '" + s + "' (min|inr|ugal|ugal-th)");
}

int run(int argc, char** argv) {
  Cli cli("Estimate collective-exchange performance on diameter-two networks");
  cli.flag("topo", std::string("oft:k=6"), "topology spec");
  cli.flag("exchange", std::string("a2a"), "a2a | nn");
  cli.flag("bytes", std::int64_t{7680}, "bytes per pair (a2a) or per neighbor (nn)");
  cli.flag("routing", std::string("all"), "min | inr | ugal | ugal-th | all");
  cli.flag("seed", std::int64_t{1}, "seed");
  cli.flag("limit-ms", 20000.0, "simulated-time abort limit");
  if (!cli.parse(argc, argv)) return 0;

  const Topology topo = build_topology_from_spec(cli.get_string("topo"));
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const TimePs limit = us(cli.get_double("limit-ms") * 1000.0);
  const std::int64_t bytes = cli.get_int("bytes");

  ExchangePlan plan;
  if (cli.get_string("exchange") == "a2a") {
    plan = make_all_to_all_plan(topo.num_nodes(), bytes, A2aOrder::kShuffled, cfg.seed);
  } else {
    const auto dims = best_torus_dims(topo.num_nodes());
    std::printf("embedded torus: %dx%dx%d (%d of %d nodes active)\n", dims[0], dims[1],
                dims[2], dims[0] * dims[1] * dims[2], topo.num_nodes());
    plan = make_nearest_neighbor_plan(topo.num_nodes(), dims, bytes);
  }
  std::printf("exchange: %s, %lld bytes total\n", plan.name.c_str(),
              static_cast<long long>(plan.total_bytes()));

  std::vector<RoutingStrategy> strategies;
  if (cli.get_string("routing") == "all") {
    strategies = {RoutingStrategy::kMinimal, RoutingStrategy::kValiant, RoutingStrategy::kUgal,
                  RoutingStrategy::kUgalThreshold};
  } else {
    strategies = {parse_strategy(cli.get_string("routing"))};
  }

  Table t({"routing", "completed", "completion (us)", "effective throughput"});
  for (RoutingStrategy s : strategies) {
    SimStack stack(topo, s, cfg);
    const ExchangeResult r = stack.run_exchange(plan, limit);
    t.add(to_string(s), r.completed ? "yes" : "NO", fmt(r.completion_us, 1),
          fmt(r.effective_throughput, 3));
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
