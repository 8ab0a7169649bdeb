// Exchange-workload construction (paper Section 4.4):
//  * All-to-all: every process sends one message to every other process,
//    by default each in an independent shuffled destination order with
//    packets interleaved round-robin across the open messages, which spreads
//    simultaneous traffic uniformly (the optimized exchanges of Kumar et al.).
//  * Nearest-neighbor: processes arranged in a 3-D torus (paper_torus_dims);
//    each sends one message to each of its 6 neighbors, interleaved
//    round-robin. Ranks map contiguously onto nodes unless a mapping is
//    given.
// ExchangeWorkload + make_exchange_plan are the declarative front door the
// campaign exchange sweeps use; the per-pattern builders stay public for
// tests and tools.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"

namespace d2net {

/// Destination ordering of the all-to-all exchange.
enum class A2aOrder {
  /// Phase i: node n sends to (n + i) mod N — the classic staggered
  /// schedule. While nodes stay synchronized each phase is a shift
  /// permutation, which is adversarial for minimal routing on the SSPTs.
  kStaggered,
  /// Each node visits its destinations in an independent random order,
  /// which spreads simultaneous traffic uniformly (the behavior the
  /// optimized exchanges of Kumar et al. achieve); default for Fig. 13.
  kShuffled,
};

/// The all-to-all plan: bytes_per_pair to each of the other N-1 nodes,
/// packets interleaved round-robin across the open messages
/// (MessageOrder::kRoundRobin). `seed` only matters for kShuffled.
ExchangePlan make_all_to_all_plan(int num_nodes, std::int64_t bytes_per_pair,
                                  A2aOrder order = A2aOrder::kShuffled,
                                  std::uint64_t seed = 1);

/// Largest 3-D torus (a <= b <= c, all >= 2) with a*b*c <= num_nodes;
/// maximizes the rank count, then minimizes the aspect spread c - a.
std::array<int, 3> best_torus_dims(int num_nodes);

/// The torus the paper embeds (Section 4.4), which exploits the topology's
/// structure under the contiguous mapping:
///  * MLFM: (p, h+1, l) — X stays inside a router, Y inside a layer, Z runs
///    across a router column (15x16x15 for h=15; this alignment is what
///    lets MLFM adaptive routing reach ~100% in Fig. 14).
///  * OFT: X = k (inside a router) and the best factor pair of 2*RL for
///    Y x Z (12x14x19 for k=12).
///  * Others (incl. SF): the generic largest fit (13x13x18 / 13x13x20 for
///    the two q=13 Slim Flys).
/// Dimensions are returned in mapping order (X fastest), not sorted.
std::array<int, 3> paper_torus_dims(const Topology& topo);

/// Nearest-neighbor plan on the given torus: rank r = x + dims[0]*(y +
/// dims[1]*z); each active rank sends bytes_per_neighbor to each of its 6
/// torus neighbors (duplicates allowed when a dimension has size 2).
/// `rank_to_node` maps ranks onto nodes — empty means the paper's
/// contiguous mapping (rank r -> node r); nodes without a rank stay idle.
ExchangePlan make_nearest_neighbor_plan(int num_nodes, const std::array<int, 3>& dims,
                                        std::int64_t bytes_per_neighbor,
                                        const std::vector<int>& rank_to_node = {});

/// A uniformly random rank-to-node assignment for `ranks` ranks over
/// `num_nodes` nodes — the anti-thesis of the contiguous mapping, used to
/// quantify how much Fig. 14's results depend on placement.
std::vector<int> random_rank_mapping(int num_nodes, int ranks, Rng& rng);

enum class ExchangePattern {
  kAllToAll,         ///< make_all_to_all_plan (Fig. 13)
  kNearestNeighbor,  ///< make_nearest_neighbor_plan on paper_torus_dims (Fig. 14)
};

enum class RankMapping {
  kContiguous,  ///< rank r -> node r (the paper's placement)
  kRandom,      ///< random_rank_mapping with Rng(seed)
};

/// One exchange, described independently of the machine it runs on. The
/// defaults are Fig. 13's shuffled, interleaved all-to-all.
struct ExchangeWorkload {
  ExchangePattern pattern = ExchangePattern::kAllToAll;
  /// Payload per (source, destination) pair: per peer for the all-to-all,
  /// per torus neighbor for the nearest-neighbor exchange.
  std::int64_t bytes_per_pair = 7680;
  /// All-to-all only: destination order, and whether packets interleave
  /// across messages (kRoundRobin) or drain one message at a time
  /// (kSequential, the schedule ablation).
  A2aOrder order = A2aOrder::kShuffled;
  MessageOrder schedule = MessageOrder::kRoundRobin;
  /// Nearest-neighbor only: rank placement.
  RankMapping mapping = RankMapping::kContiguous;
};

/// Builds the workload's plan for `topo`; `seed` drives the shuffled
/// all-to-all order and the random rank mapping.
ExchangePlan make_exchange_plan(const Topology& topo, const ExchangeWorkload& w,
                                std::uint64_t seed);

}  // namespace d2net
