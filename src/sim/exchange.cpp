#include "sim/exchange.h"

#include "common/error.h"
#include "common/rng.h"
#include "topology/topology.h"

namespace d2net {

ExchangePlan make_all_to_all_plan(int num_nodes, std::int64_t bytes_per_pair, A2aOrder order,
                                  std::uint64_t seed) {
  D2NET_REQUIRE(num_nodes >= 2, "all-to-all needs >= 2 nodes");
  D2NET_REQUIRE(bytes_per_pair > 0, "message size must be positive");
  ExchangePlan plan;
  plan.name = order == A2aOrder::kStaggered ? "all-to-all(staggered)" : "all-to-all(shuffled)";
  // Packets are interleaved round-robin across all open messages, as in the
  // optimized exchanges of Kumar et al. — sending each message to
  // completion would make the instantaneous traffic a permutation and
  // needlessly serialize on the low path diversity of these topologies.
  plan.order = MessageOrder::kRoundRobin;
  plan.per_node.resize(num_nodes);
  Rng rng(seed);
  for (int n = 0; n < num_nodes; ++n) {
    auto& msgs = plan.per_node[n];
    msgs.reserve(num_nodes - 1);
    for (int i = 1; i < num_nodes; ++i) {
      msgs.push_back({(n + i) % num_nodes, bytes_per_pair});
    }
    if (order == A2aOrder::kShuffled) rng.shuffle(msgs);
  }
  return plan;
}

std::array<int, 3> best_torus_dims(int num_nodes) {
  D2NET_REQUIRE(num_nodes >= 8, "need at least a 2x2x2 torus");
  std::array<int, 3> best{2, 2, 2};
  std::int64_t best_count = 8;
  int best_spread = 0;
  for (int a = 2; a * a * a <= num_nodes; ++a) {
    for (int b = a; a * b * b <= num_nodes; ++b) {
      const int c = num_nodes / (a * b);
      if (c < b) break;
      const std::int64_t count = static_cast<std::int64_t>(a) * b * c;
      const int spread = c - a;
      if (count > best_count || (count == best_count && spread < best_spread)) {
        best = {a, b, c};
        best_count = count;
        best_spread = spread;
      }
    }
  }
  return best;
}

std::vector<int> random_rank_mapping(int num_nodes, int ranks, Rng& rng) {
  D2NET_REQUIRE(ranks <= num_nodes, "more ranks than nodes");
  std::vector<int> nodes(num_nodes);
  for (int i = 0; i < num_nodes; ++i) nodes[i] = i;
  rng.shuffle(nodes);
  nodes.resize(ranks);
  return nodes;
}

std::array<int, 3> paper_torus_dims(const Topology& topo) {
  switch (topo.kind()) {
    case TopologyKind::kMlfm: {
      // h-MLFM: l layers of h+1 LRs with p endpoints each; exact fit.
      const int lr0 = topo.edge_routers().front();
      const int p = topo.endpoints_of(lr0);
      int num_layers = 0;
      int per_layer = 0;
      for (int r : topo.edge_routers()) {
        num_layers = std::max(num_layers, topo.info(r).a + 1);
        per_layer = std::max(per_layer, topo.info(r).b + 1);
      }
      if (p >= 2 && per_layer >= 2 && num_layers >= 2) return {p, per_layer, num_layers};
      break;
    }
    case TopologyKind::kOft: {
      // X = k inside a router; Y x Z = the most balanced factor pair of
      // 2 * RL (always even, so a pair with both factors >= 2 exists).
      const int k = topo.endpoints_of(0);
      const int rest = topo.num_nodes() / k;  // = 2 * RL
      int best_a = 2;
      for (int a = 2; a * a <= rest; ++a) {
        if (rest % a == 0) best_a = a;
      }
      if (k >= 2 && best_a >= 2 && rest / best_a >= 2) return {k, best_a, rest / best_a};
      break;
    }
    default:
      break;
  }
  return best_torus_dims(topo.num_nodes());
}

ExchangePlan make_nearest_neighbor_plan(int num_nodes, const std::array<int, 3>& dims,
                                        std::int64_t bytes_per_neighbor,
                                        const std::vector<int>& rank_to_node) {
  const auto [dx, dy, dz] = dims;
  D2NET_REQUIRE(dx >= 2 && dy >= 2 && dz >= 2, "torus dimensions must be >= 2");
  const int ranks = dx * dy * dz;
  D2NET_REQUIRE(ranks <= num_nodes, "torus larger than the machine");
  D2NET_REQUIRE(bytes_per_neighbor > 0, "message size must be positive");
  D2NET_REQUIRE(rank_to_node.empty() || static_cast<int>(rank_to_node.size()) >= ranks,
                "rank mapping smaller than the torus");

  ExchangePlan plan;
  plan.name = "nearest-neighbor " + std::to_string(dx) + "x" + std::to_string(dy) + "x" +
              std::to_string(dz) + (rank_to_node.empty() ? "" : " (custom mapping)");
  plan.order = MessageOrder::kRoundRobin;
  plan.per_node.resize(num_nodes);

  auto node_at = [&](int x, int y, int z) {
    const int rank = x + dx * (y + dy * z);
    return rank_to_node.empty() ? rank : rank_to_node[rank];
  };
  for (int z = 0; z < dz; ++z) {
    for (int y = 0; y < dy; ++y) {
      for (int x = 0; x < dx; ++x) {
        auto& msgs = plan.per_node[node_at(x, y, z)];
        msgs.reserve(6);
        // +/- in each dimension, torus wraparound. With a dimension of
        // size 2 both directions reach the same neighbor — two messages are
        // still exchanged, as an MPI halo exchange would.
        const int neighbors[6] = {
            node_at((x + 1) % dx, y, z),      node_at((x + dx - 1) % dx, y, z),
            node_at(x, (y + 1) % dy, z),      node_at(x, (y + dy - 1) % dy, z),
            node_at(x, y, (z + 1) % dz),      node_at(x, y, (z + dz - 1) % dz)};
        for (int nb : neighbors) {
          D2NET_ASSERT(nb != node_at(x, y, z), "self neighbor in torus >= 2^3");
          msgs.push_back({nb, bytes_per_neighbor});
        }
      }
    }
  }
  return plan;
}

ExchangePlan make_exchange_plan(const Topology& topo, const ExchangeWorkload& w,
                                std::uint64_t seed) {
  if (w.pattern == ExchangePattern::kAllToAll) {
    ExchangePlan plan = make_all_to_all_plan(topo.num_nodes(), w.bytes_per_pair, w.order, seed);
    plan.order = w.schedule;
    return plan;
  }
  const std::array<int, 3> dims = paper_torus_dims(topo);
  std::vector<int> rank_to_node;
  if (w.mapping == RankMapping::kRandom) {
    Rng rng(seed);
    rank_to_node = random_rank_mapping(topo.num_nodes(), dims[0] * dims[1] * dims[2], rng);
  }
  return make_nearest_neighbor_plan(topo.num_nodes(), dims, w.bytes_per_pair, rank_to_node);
}

}  // namespace d2net
