#include "sim/traffic.h"

#include <algorithm>

#include "common/error.h"
#include "routing/minimal_table.h"
#include "topology/topology.h"

namespace d2net {

UniformTraffic::UniformTraffic(int num_nodes) : num_nodes_(num_nodes) {
  D2NET_REQUIRE(num_nodes >= 2, "uniform traffic needs >= 2 nodes");
}

int UniformTraffic::dest(int src_node, Rng& rng) const {
  // Uniform over the other N-1 nodes.
  const int d = static_cast<int>(rng.next_below(num_nodes_ - 1));
  return d >= src_node ? d + 1 : d;
}

PermutationTraffic::PermutationTraffic(std::vector<int> dest_of, std::string name)
    : dest_of_(std::move(dest_of)), name_(std::move(name)) {
  for (std::size_t i = 0; i < dest_of_.size(); ++i) {
    D2NET_REQUIRE(dest_of_[i] >= 0 && dest_of_[i] < static_cast<int>(dest_of_.size()) &&
                      dest_of_[i] != static_cast<int>(i),
                  "invalid permutation entry");
  }
}

int PermutationTraffic::dest(int src_node, Rng&) const { return dest_of_[src_node]; }

std::unique_ptr<PermutationTraffic> make_node_shift(int num_nodes, int shift) {
  D2NET_REQUIRE(num_nodes >= 2, "shift traffic needs >= 2 nodes");
  D2NET_REQUIRE(shift % num_nodes != 0, "zero shift would self-send");
  std::vector<int> dest(num_nodes);
  for (int i = 0; i < num_nodes; ++i) dest[i] = (i + shift) % num_nodes;
  return std::make_unique<PermutationTraffic>(std::move(dest),
                                              "shift+" + std::to_string(shift));
}

std::unique_ptr<PermutationTraffic> make_random_permutation(int num_nodes, Rng& rng) {
  D2NET_REQUIRE(num_nodes >= 2, "permutation needs >= 2 nodes");
  std::vector<int> dest(num_nodes);
  for (int i = 0; i < num_nodes; ++i) dest[i] = i;
  rng.shuffle(dest);
  // Remove fixed points by swapping with a neighbor (cyclically).
  for (int i = 0; i < num_nodes; ++i) {
    if (dest[i] == i) std::swap(dest[i], dest[(i + 1) % num_nodes]);
  }
  return std::make_unique<PermutationTraffic>(std::move(dest), "random-permutation");
}

namespace {

/// Greedy construction of the SF worst case (Fig. 5): repeatedly pick
/// unassigned routers A and a neighbor B, a destination C at distance 2
/// from A whose unique minimal path runs through B, and a destination D at
/// distance 2 from B whose unique minimal path runs through C. The B->C
/// link then carries the 2p flows of both router pairs.
std::vector<int> slim_fly_wc_router_permutation(const Topology& topo,
                                                const MinimalTable& table, Rng& rng) {
  const int n = topo.num_routers();
  std::vector<int> dst_of(n, -1);
  std::vector<bool> dst_used(n, false);

  auto unique_via = [&](int from, int to, int via) {
    const auto nh = table.next_hops(from, to);
    return nh.size() == 1 && nh[0] == via;
  };

  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);

  for (int a : order) {
    if (dst_of[a] >= 0) continue;
    bool placed = false;
    for (int b : topo.neighbors(a)) {
      if (dst_of[b] >= 0) continue;
      for (int c : topo.neighbors(b)) {
        if (dst_used[c] || table.distance(a, c) != 2 || !unique_via(a, c, b)) continue;
        for (int d : topo.neighbors(c)) {
          if (dst_used[d] || d == a || table.distance(b, d) != 2 || !unique_via(b, d, c)) {
            continue;
          }
          // Found the overlapping pair of routes A->B->C and B->C->D.
          dst_of[a] = c;
          dst_used[c] = true;
          dst_of[b] = d;
          dst_used[d] = true;
          placed = true;
          break;
        }
        if (placed) break;
      }
      if (placed) break;
    }
  }
  // Fallback for leftover routers: pair them to any free destination at
  // distance 2 if possible, else any free destination.
  for (int a : order) {
    if (dst_of[a] >= 0) continue;
    int pick = -1;
    for (int c = 0; c < n; ++c) {
      if (dst_used[c] || c == a) continue;
      if (table.distance(a, c) == 2) {
        pick = c;
        break;
      }
      if (pick < 0) pick = c;
    }
    if (pick >= 0) {
      dst_of[a] = pick;
      dst_used[pick] = true;
      continue;
    }
    // The last unpaired router's only free destination is itself: take over
    // the destination of a placed router x and send x to a instead, which
    // keeps the map a derangement.
    for (int x : order) {
      if (x == a || dst_of[x] < 0 || dst_of[x] == a) continue;
      dst_of[a] = dst_of[x];
      dst_of[x] = a;
      dst_used[a] = true;
      break;
    }
    D2NET_ASSERT(dst_of[a] >= 0, "no destination left for router pairing");
  }
  return dst_of;
}

/// Router-level permutation -> node-level permutation (node i of the source
/// router talks to node i of the destination router).
std::vector<int> router_to_node_permutation(const Topology& topo,
                                            const std::vector<int>& router_dst) {
  std::vector<int> dest(topo.num_nodes(), -1);
  for (int r = 0; r < topo.num_routers(); ++r) {
    const int d = router_dst[r];
    if (d < 0) continue;
    const int p_src = topo.endpoints_of(r);
    const int p_dst = topo.endpoints_of(d);
    for (int i = 0; i < p_src; ++i) {
      dest[topo.node_base(r) + i] = topo.node_base(d) + (i % std::max(1, p_dst));
    }
  }
  return dest;
}

}  // namespace

std::unique_ptr<PermutationTraffic> make_worst_case(const Topology& topo,
                                                    const MinimalTable& table, Rng& rng) {
  switch (topo.kind()) {
    case TopologyKind::kSlimFly: {
      const std::vector<int> router_dst = slim_fly_wc_router_permutation(topo, table, rng);
      auto dest = router_to_node_permutation(topo, router_dst);
      return std::make_unique<PermutationTraffic>(std::move(dest), "wc-sf-pairing");
    }
    case TopologyKind::kMlfm:
    case TopologyKind::kOft: {
      // Router shift by one = node shift by p (Section 4.2); the paper's
      // "shift value of h" (MLFM) / "offset of k" (OFT) counts endpoints.
      const int p = topo.endpoints_of(topo.edge_routers().front());
      return make_node_shift(topo.num_nodes(), p);
    }
    default: {
      // Generic adversary: router shift by one.
      const int p = topo.endpoints_of(topo.edge_routers().front());
      return make_node_shift(topo.num_nodes(), std::max(1, p));
    }
  }
}

}  // namespace d2net
