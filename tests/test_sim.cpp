// Simulator engine tests: timing arithmetic, flow conservation, saturation
// behavior, determinism, traffic patterns and exchange workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "sim/exchange.h"
#include "sim/experiment.h"
#include "sim/network.h"
#include "sim/traffic.h"
#include "sim/voq.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"
#include "topology/spec.h"

namespace d2net {
namespace {

SimConfig fast_config() {
  SimConfig cfg;  // paper defaults: 100 Gb/s, 50 ns links, 100 ns routers
  cfg.seed = 7;
  return cfg;
}

// ------------------------------------------------------------ event queue

TEST(EventQueue, OrdersByTimeThenFifo) {
  EventQueue q;
  q.push(100, EventType::kNicFree, 1);
  q.push(50, EventType::kNicFree, 2);
  q.push(100, EventType::kNicFree, 3);
  EXPECT_EQ(q.pop().a, 2);
  EXPECT_EQ(q.pop().a, 1);  // same time: okey order, whose operand a is 1 < 3
  EXPECT_EQ(q.pop().a, 3);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------- traffic

TEST(Traffic, UniformNeverSelfSends) {
  UniformTraffic t(10);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int src = static_cast<int>(rng.next_below(10));
    const int dst = t.dest(src, rng);
    EXPECT_NE(dst, src);
    EXPECT_GE(dst, 0);
    EXPECT_LT(dst, 10);
  }
}

TEST(Traffic, UniformCoversAllDestinations) {
  UniformTraffic t(8);
  Rng rng(2);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[t.dest(0, rng)];
  EXPECT_EQ(hits[0], 0);
  for (int d = 1; d < 8; ++d) EXPECT_GT(hits[d], 800);
}

TEST(Traffic, ShiftPermutation) {
  auto t = make_node_shift(10, 3);
  Rng rng(3);
  EXPECT_EQ(t->dest(0, rng), 3);
  EXPECT_EQ(t->dest(9, rng), 2);
}

TEST(Traffic, PermutationRejectsSelfSend) {
  EXPECT_THROW(PermutationTraffic({0, 1}, "bad"), ArgumentError);
}

TEST(Traffic, SlimFlyWorstCaseIsPermutationOfDistanceTwoPairs) {
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  Rng rng(4);
  auto wc = make_worst_case(topo, table, rng);
  const auto& dest = wc->permutation();
  std::vector<int> indeg(topo.num_nodes(), 0);
  int distance_two = 0;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    ++indeg[dest[n]];
    const int rs = topo.router_of_node(n);
    const int rd = topo.router_of_node(dest[n]);
    EXPECT_NE(rs, rd);
    distance_two += table.distance(rs, rd) == 2 ? 1 : 0;
  }
  for (int n = 0; n < topo.num_nodes(); ++n) EXPECT_EQ(indeg[n], 1);
  // The greedy pairing should place the overwhelming majority at distance 2.
  EXPECT_GT(distance_two, topo.num_nodes() * 9 / 10);
}

TEST(Traffic, MlfmWorstCaseIsRouterShift) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  Rng rng(5);
  auto wc = make_worst_case(topo, table, rng);
  // Node shift by p: router index shifts by one.
  EXPECT_EQ(wc->dest(0, rng), 4);
}

// --------------------------------------------------------- zero-load timing

TEST(NetworkSim, ZeroLoadLatencyMatchesHandComputation) {
  // MLFM minimal routes are exactly 2 router hops: 4 link traversals
  // (inject + 2 network + eject) and 3 router traversals.
  //   4 * (256 B * 80 ps + 50 ns) + 3 * 100 ns = 581.92 ns.
  const Topology topo = build_mlfm(3);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  auto shift = make_node_shift(topo.num_nodes(), topo.endpoints_of(0));
  const OpenLoopResult r = stack.run_open_loop(*shift, 0.01, us(40), us(4));
  ASSERT_GT(r.packets_measured, 100);
  EXPECT_NEAR(r.avg_latency_ns, 581.9, 12.0);  // ~2% queueing slack at 1% load
  EXPECT_NEAR(r.avg_hops, 2.0, 0.001);
}

TEST(NetworkSim, SameRouterLatency) {
  // Destination attached to the source router: 2 links + 1 router
  //   2 * (20.48 + 50) + 100 = 240.96 ns.
  const Topology topo = build_mlfm(3);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  auto shift = make_node_shift(topo.num_nodes(), 1);  // next node, same router mostly
  const OpenLoopResult r = stack.run_open_loop(*shift, 0.01, us(40), us(4));
  // 2/3 of nodes send within their router (p = 3), 1/3 to the next router.
  ASSERT_GT(r.packets_measured, 100);
  EXPECT_NEAR(r.avg_latency_ns, (2 * 240.96 + 581.92) / 3.0, 15.0);
}

// --------------------------------------------------- conservation & loads

TEST(NetworkSim, LowLoadAcceptsAllOfferedTraffic) {
  const Topology topo = build_mlfm(4);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 0.3, us(30), us(6));
  EXPECT_NEAR(r.accepted_throughput, 0.3, 0.02);
}

TEST(NetworkSim, DeterministicAcrossRuns) {
  const Topology topo = build_oft(4);
  UniformTraffic uni(topo.num_nodes());
  SimStack a(topo, RoutingStrategy::kValiant, fast_config());
  SimStack b(topo, RoutingStrategy::kValiant, fast_config());
  const OpenLoopResult ra = a.run_open_loop(uni, 0.5, us(20), us(4));
  const OpenLoopResult rb = b.run_open_loop(uni, 0.5, us(20), us(4));
  EXPECT_EQ(ra.packets_injected, rb.packets_injected);
  EXPECT_EQ(ra.packets_measured, rb.packets_measured);
  EXPECT_DOUBLE_EQ(ra.accepted_throughput, rb.accepted_throughput);
  EXPECT_DOUBLE_EQ(ra.avg_latency_ns, rb.avg_latency_ns);
}

TEST(NetworkSim, SeedChangesTraceButNotThroughput) {
  const Topology topo = build_oft(4);
  UniformTraffic uni(topo.num_nodes());
  SimConfig c1 = fast_config();
  SimConfig c2 = fast_config();
  c2.seed = 99;
  SimStack a(topo, RoutingStrategy::kMinimal, c1);
  SimStack b(topo, RoutingStrategy::kMinimal, c2);
  const OpenLoopResult ra = a.run_open_loop(uni, 0.4, us(30), us(6));
  const OpenLoopResult rb = b.run_open_loop(uni, 0.4, us(30), us(6));
  EXPECT_NE(ra.packets_injected, rb.packets_injected);  // different Poisson draws
  EXPECT_NEAR(ra.accepted_throughput, rb.accepted_throughput, 0.02);
}

// ------------------------------------------------------ saturation physics

TEST(NetworkSim, MinimalSaturatesNearFullLoadOnUniform) {
  const Topology topo = build_mlfm(4);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 1.0, us(30), us(6));
  EXPECT_GT(r.accepted_throughput, 0.85);
}

TEST(NetworkSim, MinimalCollapsesOnWorstCase) {
  // MLFM h = 4: worst-case shift saturates at ~1/h = 0.25 (Section 4.2).
  const Topology topo = build_mlfm(4);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  const MinimalTable table(topo);
  Rng rng(1);
  auto wc = make_worst_case(topo, table, rng);
  const OpenLoopResult r = stack.run_open_loop(*wc, 1.0, us(30), us(6));
  EXPECT_NEAR(r.accepted_throughput, 0.25, 0.06);
}

TEST(NetworkSim, OftWorstCaseSaturatesAtOneOverK) {
  const Topology topo = build_oft(4);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  const MinimalTable table(topo);
  Rng rng(1);
  auto wc = make_worst_case(topo, table, rng);
  const OpenLoopResult r = stack.run_open_loop(*wc, 1.0, us(30), us(6));
  EXPECT_NEAR(r.accepted_throughput, 0.25, 0.06);  // 1/k, k = 4
}

TEST(NetworkSim, ValiantHalvesUniformThroughputButFixesWorstCase) {
  const Topology topo = build_mlfm(4);
  SimStack stack(topo, RoutingStrategy::kValiant, fast_config());
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult uni_r = stack.run_open_loop(uni, 1.0, us(30), us(6));
  EXPECT_NEAR(uni_r.accepted_throughput, 0.5, 0.08);

  const MinimalTable table(topo);
  Rng rng(1);
  auto wc = make_worst_case(topo, table, rng);
  const OpenLoopResult wc_r = stack.run_open_loop(*wc, 0.4, us(30), us(6));
  // INR sustains ~0.4 where MIN collapsed at 0.25.
  EXPECT_GT(wc_r.accepted_throughput, 0.33);
}

TEST(NetworkSim, UgalTracksMinimalOnUniformAndValiantOnWorstCase) {
  const Topology topo = build_mlfm(4);
  SimStack stack(topo, RoutingStrategy::kUgal, fast_config());
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult uni_r = stack.run_open_loop(uni, 0.9, us(30), us(6));
  EXPECT_GT(uni_r.accepted_throughput, 0.8);

  const MinimalTable table(topo);
  Rng rng(1);
  auto wc = make_worst_case(topo, table, rng);
  const OpenLoopResult wc_r = stack.run_open_loop(*wc, 0.4, us(30), us(6));
  EXPECT_GT(wc_r.accepted_throughput, 0.30);
  EXPECT_LT(wc_r.fraction_minimal, 0.9);  // it must actually divert
}

TEST(NetworkSim, SlimFlyMinimalWorstCase) {
  // SF worst case saturates near 1/2p (Section 4.2): q = 5, p = 3 -> ~0.17.
  const Topology topo = build_slim_fly(5);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  const MinimalTable table(topo);
  Rng rng(1);
  auto wc = make_worst_case(topo, table, rng);
  const OpenLoopResult r = stack.run_open_loop(*wc, 1.0, us(30), us(6));
  EXPECT_LT(r.accepted_throughput, 0.30);
  EXPECT_GT(r.accepted_throughput, 0.10);
}

// ------------------------------------------------------------- experiment

TEST(Experiment, SweepAndSaturationPoint) {
  const Topology topo = build_mlfm(3);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  const MinimalTable table(topo);
  Rng rng(2);
  auto wc = make_worst_case(topo, table, rng);
  const auto sweep = run_load_sweep(stack, *wc, {0.1, 0.3, 0.5, 0.8}, us(24), us(6));
  ASSERT_EQ(sweep.size(), 4u);
  const double sat = saturation_point(sweep);
  // 1/h = 1/3: the 0.3 point still passes, 0.5 does not.
  EXPECT_NEAR(sat, 0.3, 0.01);
}

TEST(Experiment, SaturationPointSkipsTimedOutAndFailedPoints) {
  const auto point = [](double offered, double accepted, bool timed_out = false,
                        bool failed = false) {
    SweepPoint pt;
    pt.offered = offered;
    pt.result.accepted_throughput = accepted;
    pt.result.timed_out = timed_out;
    pt.failed = failed;
    return pt;
  };
  // A timed-out point that happens to read as passing does not raise the
  // saturation point past the last complete passing load.
  EXPECT_DOUBLE_EQ(saturation_point({point(0.1, 0.1), point(0.3, 0.3), point(0.5, 0.2),
                                     point(0.8, 0.8, /*timed_out=*/true)}),
                   0.3);
  // Nor does a failed one.
  EXPECT_DOUBLE_EQ(saturation_point({point(0.1, 0.1), point(0.5, 0.2),
                                     point(0.8, 0.8, false, /*failed=*/true)}),
                   0.1);
  // All-saturated fallback: the first judged point's accepted throughput,
  // not a timed-out or failed front point's.
  EXPECT_DOUBLE_EQ(saturation_point({point(0.1, 0.02, /*timed_out=*/true),
                                     point(0.2, 0.0, false, /*failed=*/true),
                                     point(0.3, 0.05), point(0.5, 0.06)}),
                   0.05);
  // Nothing judged at all: zero.
  EXPECT_DOUBLE_EQ(saturation_point({point(0.1, 0.1, /*timed_out=*/true)}), 0.0);
  EXPECT_DOUBLE_EQ(saturation_point({}), 0.0);
}

TEST(Experiment, RejectsShardsOtherThanOne) {
  // Every simulation is one serial event loop; SimConfig::shards survives
  // only as a field that must stay 1, checked once for both engines.
  const Topology topo = build_slim_fly(5);
  for (const SimEngine engine : {SimEngine::kPacket, SimEngine::kFlow}) {
    SimConfig cfg = fast_config();
    cfg.engine = engine;
    cfg.shards = 2;
    EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, cfg), ArgumentError);
    cfg.shards = 1;
    EXPECT_NO_THROW(SimStack(topo, RoutingStrategy::kMinimal, cfg));
  }
}

TEST(Experiment, NumVcsProvisioning) {
  const Topology sf = build_slim_fly(5);
  const Topology mlfm = build_mlfm(3);
  const MinimalTable tsf(sf);
  const MinimalTable tm(mlfm);
  EXPECT_EQ(num_vcs_needed(sf, tsf, RoutingStrategy::kMinimal), 2);
  EXPECT_EQ(num_vcs_needed(sf, tsf, RoutingStrategy::kValiant), 4);
  EXPECT_EQ(num_vcs_needed(mlfm, tm, RoutingStrategy::kMinimal), 1);
  EXPECT_EQ(num_vcs_needed(mlfm, tm, RoutingStrategy::kUgal), 2);
}

// --------------------------------------------------------------- exchange

TEST(Exchange, AllToAllPlanShape) {
  const ExchangePlan plan = make_all_to_all_plan(5, 100, A2aOrder::kStaggered);
  EXPECT_EQ(plan.total_bytes(), 5 * 4 * 100);
  EXPECT_EQ(plan.active_nodes(), 5);
  // Staggered order: node 2's first destination is 3.
  EXPECT_EQ(plan.per_node[2][0].dst_node, 3);
  EXPECT_EQ(plan.per_node[2][3].dst_node, 1);
}

TEST(Exchange, ShuffledPlanCoversAllDestinations) {
  const ExchangePlan plan = make_all_to_all_plan(6, 100, A2aOrder::kShuffled, 3);
  for (int n = 0; n < 6; ++n) {
    std::vector<bool> seen(6, false);
    for (const auto& m : plan.per_node[n]) {
      EXPECT_NE(m.dst_node, n);
      EXPECT_FALSE(seen[m.dst_node]);
      seen[m.dst_node] = true;
    }
  }
}

TEST(Exchange, TorusDimsMatchPaper) {
  // Section 4.4 torus choices are exact fits of the paper configurations.
  EXPECT_EQ(best_torus_dims(3192), (std::array<int, 3>{12, 14, 19}));
  EXPECT_EQ(best_torus_dims(3600), (std::array<int, 3>{15, 15, 16}));
  EXPECT_EQ(best_torus_dims(3042), (std::array<int, 3>{13, 13, 18}));
  EXPECT_EQ(best_torus_dims(3380), (std::array<int, 3>{13, 13, 20}));
}

TEST(Exchange, PaperTorusDimsAreStructureAligned) {
  // The paper's exact tori, including dimension ORDER (X fastest):
  // 15x16x15 on the h=15 MLFM and 12x14x19 on the k=12 OFT.
  EXPECT_EQ(paper_torus_dims(build_mlfm(15)), (std::array<int, 3>{15, 16, 15}));
  EXPECT_EQ(paper_torus_dims(build_oft(12)), (std::array<int, 3>{12, 14, 19}));
  EXPECT_EQ(paper_torus_dims(build_slim_fly(13, SlimFlyP::kFloor)),
            (std::array<int, 3>{13, 13, 18}));
  // Scaled defaults stay aligned and exact too.
  EXPECT_EQ(paper_torus_dims(build_mlfm(7)), (std::array<int, 3>{7, 8, 7}));
  EXPECT_EQ(paper_torus_dims(build_oft(6)), (std::array<int, 3>{6, 2, 31}));
}

TEST(Exchange, NearestNeighborPlanShape) {
  const ExchangePlan plan = make_nearest_neighbor_plan(40, {2, 3, 6}, 512);
  EXPECT_EQ(plan.active_nodes(), 36);
  EXPECT_EQ(plan.per_node[0].size(), 6u);
  EXPECT_TRUE(plan.per_node[36].empty());  // idle beyond the torus
  EXPECT_EQ(plan.total_bytes(), 36 * 6 * 512);
}

TEST(Exchange, AllToAllCompletesWithFullEffectiveThroughput) {
  // Messages must be large enough that completion is bandwidth-dominated
  // rather than latency-tail dominated (the paper uses ~95k packets/node).
  const Topology topo = build_mlfm(3);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  const ExchangePlan plan = make_all_to_all_plan(topo.num_nodes(), 16384);
  const ExchangeResult r = stack.run_exchange(plan, us(5000));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.effective_throughput, 0.8);
  EXPECT_LE(r.effective_throughput, 1.05);
}

TEST(Exchange, ValiantAllToAllGetsAboutHalf) {
  const Topology topo = build_mlfm(3);
  SimStack stack(topo, RoutingStrategy::kValiant, fast_config());
  const ExchangePlan plan = make_all_to_all_plan(topo.num_nodes(), 1024);
  const ExchangeResult r = stack.run_exchange(plan, us(5000));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.effective_throughput, 0.35);
  EXPECT_LT(r.effective_throughput, 0.7);
}

TEST(Exchange, NearestNeighborCompletes) {
  const Topology topo = build_mlfm(3);  // 36 nodes -> 3x3x4 torus
  SimStack stack(topo, RoutingStrategy::kValiant, fast_config());
  const auto dims = best_torus_dims(topo.num_nodes());
  const ExchangePlan plan = make_nearest_neighbor_plan(topo.num_nodes(), dims, 4096);
  const ExchangeResult r = stack.run_exchange(plan, us(50000));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.effective_throughput, 0.2);
}

TEST(Exchange, TimeLimitAborts) {
  const Topology topo = build_mlfm(3);
  SimStack stack(topo, RoutingStrategy::kMinimal, fast_config());
  const ExchangePlan plan = make_all_to_all_plan(topo.num_nodes(), 1 << 20);
  const ExchangeResult r = stack.run_exchange(plan, us(10));
  EXPECT_FALSE(r.completed);
}

// ---------------------------------------------------------- live VOQ cells

TEST(VoqCells, CompletedExchangeReturnsEveryCellToTheFreeList) {
  // A cell lives only while its FIFO holds a packet, so once every byte of
  // an exchange is delivered the whole pool is free again. The paranoid
  // end-of-run audit additionally checks live + free == pool size.
  const Topology topo = build_slim_fly(5);
  SimConfig cfg = fast_config();
  cfg.metrics.enabled = true;
  cfg.paranoid = true;
  SimStack stack(topo, RoutingStrategy::kUgal, cfg);
  const ExchangePlan plan = make_all_to_all_plan(topo.num_nodes(), 1024);
  const ExchangeResult r = stack.run_exchange(plan, us(5000));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(stack.sim().live_voq_cells(), 0u);
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_GT(r.metrics->capacities.voq_cells, 0u);
  EXPECT_LE(r.metrics->capacities.voq_cells, r.metrics->capacities.packet_pool_slots);
}

TEST(VoqCells, PeakIsPerRunAndBoundedByPacketPoolSlots) {
  // Every live cell holds at least one packet, so the peak live-cell count
  // can never exceed the packet slots. reset() empties the pool, so the
  // peak is a per-run figure: a rerun of the same seed reports it exactly.
  const Topology topo = build_slim_fly(5);
  SimConfig cfg = fast_config();
  cfg.metrics.enabled = true;
  SimStack stack(topo, RoutingStrategy::kUgal, cfg);
  const UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult a = stack.run_open_loop(uni, 1.0, us(4), us(1));
  const OpenLoopResult b = stack.run_open_loop(uni, 1.0, us(4), us(1));
  ASSERT_NE(a.metrics, nullptr);
  ASSERT_NE(b.metrics, nullptr);
  const EngineCapacities& cap = a.metrics->capacities;
  EXPECT_GT(cap.voq_cells, 0u);
  EXPECT_LE(cap.voq_cells, cap.packet_pool_slots);
  EXPECT_EQ(b.metrics->capacities.voq_cells, cap.voq_cells);
}

TEST(VoqCells, BrokenInputVcListThrowsInsteadOfSpinning) {
  // Three live cells of router 7's (in_port 2, vc 1), linked 0 -> 1 -> 2
  // and then back to 0. The walks are bounded by the live-cell count in
  // every build type, so a lookup that never matches and an unlink of a
  // cell the cycle lacks both throw, naming the input VC.
  VoqCellPool cells;
  std::int32_t ids[3];
  for (int out = 0; out < 3; ++out) ids[out] = cells.alloc(7, 2, 1, out);
  for (int i = 0; i < 3; ++i) cells[ids[i]].next_sib = ids[(i + 1) % 3];
  std::int32_t head = ids[0];
  EXPECT_EQ(voq_find(cells, head, 2), ids[2]);
  const auto expect_broken = [](auto&& walk, const std::string& what) {
    try {
      walk();
      ADD_FAILURE() << "expected InternalError: " << what;
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("router 7 in_port 2 vc 1: " + what),
                std::string::npos)
          << e.what();
    }
  };
  expect_broken([&] { voq_find(cells, head, 5); }, "cycle");
  const std::int32_t stray = cells.alloc(7, 2, 1, 4);
  expect_broken([&] { voq_unlink(cells, head, stray); }, "cycle");

  // Break the cycle: 0 -> 1 -> 2 -> end. The stray cell is now plainly
  // missing, and the list's own cells still unlink.
  cells[ids[2]].next_sib = -1;
  EXPECT_EQ(voq_find(cells, head, 5), -1);
  expect_broken([&] { voq_unlink(cells, head, stray); }, "cell missing from its list");
  voq_unlink(cells, head, ids[1]);
  EXPECT_EQ(cells[ids[0]].next_sib, ids[2]);
  voq_unlink(cells, head, ids[0]);
  EXPECT_EQ(head, ids[2]);
}

// ---------------------------------------------------------------- port rows

/// The search the port rows replaced: each router's (neighbour, port) pairs
/// sorted by neighbour id, looked up with lower_bound.
class SortedPairPorts {
 public:
  explicit SortedPairPorts(const Topology& topo) : pairs_(topo.num_routers()) {
    for (int r = 0; r < topo.num_routers(); ++r) {
      const auto& nbrs = topo.neighbors(r);
      for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) pairs_[r].emplace_back(nbrs[i], i);
      std::sort(pairs_[r].begin(), pairs_[r].end());
    }
  }
  int port(int router, int neighbor) const {
    const auto& map = pairs_[router];
    const auto it = std::lower_bound(map.begin(), map.end(), std::make_pair(neighbor, -1));
    return it != map.end() && it->first == neighbor ? it->second : -1;
  }

 private:
  std::vector<std::vector<std::pair<int, int>>> pairs_;
};

class PortRowOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(PortRowOracle, EveryNeighbourGetsTheSortedPairSearchPort) {
  const Topology topo = build_topology_from_spec(GetParam());
  const NetworkSim sim(topo, fast_config(), 1);
  const SortedPairPorts oracle(topo);
  int max_degree = 0;
  for (int r = 0; r < topo.num_routers(); ++r) {
    const auto& nbrs = topo.neighbors(r);
    max_degree = std::max(max_degree, static_cast<int>(nbrs.size()));
    for (const int n : nbrs) {
      ASSERT_EQ(sim.out_port_toward(r, n), oracle.port(r, n)) << "router " << r << " -> " << n;
    }
  }
  if (std::string(GetParam()) == "sf:q=23") {
    EXPECT_EQ(max_degree, 35);  // rows of two 32-entry blocks
  }
  // The padding is the router's own id: asking for the router itself, or
  // for a router it is not adjacent to, is an error, as it was before.
  for (const int r : {0, topo.num_routers() - 1}) {
    EXPECT_THROW(sim.out_port_toward(r, r), InternalError);
    for (int m = 0; m < topo.num_routers(); ++m) {
      if (m != r && oracle.port(r, m) < 0) {
        EXPECT_THROW(sim.out_port_toward(r, m), InternalError);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, PortRowOracle,
                         ::testing::Values("sf:q=5", "sf:q=23", "mlfm:h=5", "oft:k=5",
                                           "dragonfly:a=4,h=2,p=2", "ft3:r=6",
                                           "hyperx:s1=4,s2=3,p=2"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace d2net
