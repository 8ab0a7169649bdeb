// Tests for the analytic link-load model and fault injection. The model
// must predict exactly the Section 4.2 saturation bounds the simulator
// measures: 1/2p (SF pairing), 1/h (MLFM shift), 1/k (OFT shift).
#include <gtest/gtest.h>

#include "analysis/link_load.h"
#include "common/rng.h"
#include "routing/minimal_table.h"
#include "routing/valiant_routing.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/degrade.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/properties.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

TEST(LinkLoad, MlfmWorstCaseBoundIsOneOverH) {
  const int h = 7;
  const Topology topo = build_mlfm(h);
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport rep = minimal_link_loads(topo, table, wc->permutation());
  EXPECT_DOUBLE_EQ(rep.max_load, h);
  EXPECT_DOUBLE_EQ(rep.throughput_bound, 1.0 / h);
}

TEST(LinkLoad, OftWorstCaseBoundIsOneOverK) {
  const int k = 6;
  const Topology topo = build_oft(k);
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport rep = minimal_link_loads(topo, table, wc->permutation());
  EXPECT_DOUBLE_EQ(rep.max_load, k);
  EXPECT_DOUBLE_EQ(rep.throughput_bound, 1.0 / k);
}

TEST(LinkLoad, SlimFlyWorstCaseBoundIsOneOverTwoP) {
  const Topology topo = build_slim_fly(7, SlimFlyP::kFloor);  // p = 5
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport rep = minimal_link_loads(topo, table, wc->permutation());
  EXPECT_DOUBLE_EQ(rep.max_load, 2.0 * topo.endpoints_of(0));
  EXPECT_DOUBLE_EQ(rep.throughput_bound, 0.1);

  // The greedy pairing can leave its last router with only itself as a free
  // destination (seeds 90 and 93 at q=7, 110 at q=13); the pairing must
  // still be a derangement that keeps the 2p bound on every seed.
  for (const int q : {7, 13}) {
    const Topology sf = build_slim_fly(q, SlimFlyP::kFloor);
    const MinimalTable sf_table(sf);
    const int p = sf.endpoints_of(0);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      SCOPED_TRACE("q=" + std::to_string(q) + " seed=" + std::to_string(seed));
      Rng seed_rng(seed);
      const auto perm = make_worst_case(sf, sf_table, seed_rng);
      std::vector<bool> hit(sf.num_routers(), false);
      for (int r = 0; r < sf.num_routers(); ++r) {
        const int d = sf.router_of_node(perm->permutation()[sf.node_base(r)]);
        EXPECT_NE(d, r);
        EXPECT_FALSE(hit[d]);
        hit[d] = true;
      }
      EXPECT_DOUBLE_EQ(minimal_link_loads(sf, sf_table, perm->permutation()).max_load,
                       2.0 * p);
    }
  }
}

TEST(LinkLoad, UniformMinimalIsNearFullBandwidth) {
  for (const Topology& topo : {build_mlfm(7), build_oft(6), build_slim_fly(7)}) {
    const MinimalTable table(topo);
    const LinkLoadReport rep = minimal_link_loads_uniform(topo, table);
    EXPECT_GT(rep.throughput_bound, 0.9) << topo.name();
    EXPECT_LE(rep.throughput_bound, 1.0) << topo.name();
  }
}

TEST(LinkLoad, UniformOnOversubscribedSlimFlyIsBelowOne) {
  // p = ceil(r'/2) over-subscribes: the bound drops to ~(r'/2)/p < 1,
  // matching the ~87% saturation of Fig. 6a.
  const Topology topo = build_slim_fly(7, SlimFlyP::kCeil);  // r' = 11, p = 6
  const MinimalTable table(topo);
  const LinkLoadReport rep = minimal_link_loads_uniform(topo, table);
  EXPECT_LT(rep.throughput_bound, 0.95);
  EXPECT_GT(rep.throughput_bound, 0.75);
}

TEST(LinkLoad, ValiantHalvesTheWorstCaseBound) {
  const Topology topo = build_mlfm(5);
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport rep =
      valiant_link_loads(topo, table, wc->permutation(), valiant_intermediates(topo));
  // Indirect routing spreads the shift almost perfectly; each link carries
  // ~2x the uniform load, bounding throughput near 0.5.
  EXPECT_GT(rep.throughput_bound, 0.35);
  EXPECT_LT(rep.throughput_bound, 0.65);
}

TEST(LinkLoad, PredictsSimulatedSaturation) {
  // Cross-validation: the analytic bound and the simulator must agree on
  // the MLFM worst case within a few percent.
  const int h = 4;
  const Topology topo = build_mlfm(h);
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport analytic = minimal_link_loads(topo, table, wc->permutation());

  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult sim = stack.run_open_loop(*wc, 1.0, us(30), us(6));
  EXPECT_NEAR(sim.accepted_throughput, analytic.throughput_bound, 0.04);
}

TEST(LinkLoad, ConservationOfFlow) {
  // Total injected load must equal the sum of first-hop channel loads.
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  Rng rng(2);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport rep = minimal_link_loads(topo, table, wc->permutation());
  double total = 0.0;
  for (double l : rep.loads) total += l;
  // Every unit of traffic crosses exactly dist(s, d) = 2 channels here.
  EXPECT_NEAR(total, 2.0 * topo.num_nodes(), 1e-6);
}

TEST(LinkLoad, MatrixEntryPointMatchesPermutation) {
  // A permutation expressed as a matrix of unit flows must yield the same
  // loads as the dedicated permutation entry point.
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  Rng rng(3);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport a = minimal_link_loads(topo, table, wc->permutation());
  std::vector<NodeFlow> flows;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    flows.push_back({n, wc->permutation()[n], 1.0});
  }
  const LinkLoadReport b = minimal_link_loads_matrix(topo, table, flows);
  ASSERT_EQ(a.loads.size(), b.loads.size());
  for (std::size_t c = 0; c < a.loads.size(); ++c) {
    EXPECT_NEAR(a.loads[c], b.loads[c], 1e-9);
  }
}

TEST(LinkLoad, NearestNeighborMatrixPredictsExchangeThroughput) {
  // Build the Fig. 14 halo-exchange traffic matrix (each rank spreads its
  // injection over its 6 neighbors) on the structure-aligned torus and
  // compare the analytic bound against the measured effective throughput
  // of the closed-loop exchange under minimal routing.
  const Topology topo = build_mlfm(5);
  const MinimalTable table(topo);
  const auto dims = paper_torus_dims(topo);
  const ExchangePlan plan = make_nearest_neighbor_plan(topo.num_nodes(), dims, 6 * 4096);
  std::vector<NodeFlow> flows;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    for (const ExchangeMessage& m : plan.per_node[n]) {
      flows.push_back({n, m.dst_node, 1.0 / 6.0});
    }
  }
  const LinkLoadReport analytic = minimal_link_loads_matrix(topo, table, flows);

  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const ExchangeResult r = stack.run_exchange(plan, us(500000));
  ASSERT_TRUE(r.completed);
  // Closed-loop self-throttling tracks the open-loop bound loosely; the
  // bound must be predictive within ~25% relative.
  EXPECT_NEAR(r.effective_throughput, analytic.throughput_bound,
              0.25 * analytic.throughput_bound + 0.05);
}

TEST(LinkLoad, ObservedChannelUtilizationMatchesAnalyticProfile) {
  // Run the MLFM worst case at the saturating load and compare the
  // simulator's observed per-channel traffic against the analytic
  // expectation: the two hot channels per router pair should be the only
  // ones near full utilization.
  const int h = 4;
  const Topology topo = build_mlfm(h);
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport analytic = minimal_link_loads(topo, table, wc->permutation());

  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  (void)stack.run_open_loop(*wc, 1.0, us(30), us(6));
  const auto stats = stack.sim().channel_stats();
  ASSERT_EQ(stats.size(), analytic.loads.size());

  double max_util = 0.0;
  for (std::size_t c = 0; c < stats.size(); ++c) {
    max_util = std::max(max_util, stats[c].utilization);
    // Channels the analytic model says are idle must be (nearly) idle.
    if (analytic.loads[c] == 0.0) {
      EXPECT_LT(stats[c].utilization, 0.02);
    }
  }
  // The hottest channel saturates (~100% of the line rate).
  EXPECT_GT(max_util, 0.93);
}

TEST(LinkLoad, CompareAgreesOnAllThreeTopologies) {
  // The structured sim-vs-analytic comparison: run uniform traffic below
  // saturation on one SF, one MLFM and one OFT system and require the
  // observed per-channel utilization profile to track the analytic
  // expectation channel by channel.
  const double load = 0.5;
  for (const Topology& topo : {build_slim_fly(5), build_mlfm(4), build_oft(4)}) {
    const MinimalTable table(topo);
    const LinkLoadReport analytic = minimal_link_loads_uniform(topo, table);

    SimConfig cfg;
    SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
    UniformTraffic uni(topo.num_nodes());
    (void)stack.run_open_loop(uni, load, us(30), us(6));
    std::vector<double> observed;
    for (const auto& cs : stack.sim().channel_stats()) observed.push_back(cs.utilization);

    const LinkLoadComparison cmp = compare_link_loads(analytic, observed, load);
    EXPECT_EQ(cmp.channels, static_cast<int>(analytic.loads.size())) << topo.name();
    EXPECT_GT(cmp.observed_util_max, 0.0) << topo.name();
    // Below saturation the measured utilizations sit within a few percent
    // of line rate of the expectation on every channel.
    EXPECT_LT(cmp.mean_abs_error, 0.03) << topo.name();
    EXPECT_LT(cmp.max_abs_error, 0.10) << topo.name();
  }
}

TEST(LinkLoad, CompareCorrelatesOnSkewedTraffic) {
  // Uniform traffic has little cross-channel variance, so correlation is
  // only meaningful on a skewed profile: the MLFM worst case loads exactly
  // the shift channels. Expected and observed must rank channels alike.
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  Rng rng(1);
  const auto wc = make_worst_case(topo, table, rng);
  const LinkLoadReport analytic = minimal_link_loads(topo, table, wc->permutation());

  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult sim = stack.run_open_loop(*wc, 1.0, us(30), us(6));
  std::vector<double> observed;
  for (const auto& cs : stack.sim().channel_stats()) observed.push_back(cs.utilization);

  // The network only accepts ~1/h of the offered load; compare at the
  // accepted rate, where expected utilization of the hot channels is ~1.
  const LinkLoadComparison cmp =
      compare_link_loads(analytic, observed, sim.accepted_throughput);
  EXPECT_GT(cmp.correlation, 0.9);
  EXPECT_GT(cmp.expected_util_max, 0.9);
  EXPECT_GT(cmp.observed_util_max, 0.9);
}

TEST(LinkLoad, CompareRejectsMismatchedArity) {
  const Topology topo = build_mlfm(3);
  const MinimalTable table(topo);
  const LinkLoadReport analytic = minimal_link_loads_uniform(topo, table);
  EXPECT_THROW(compare_link_loads(analytic, {0.5, 0.5}, 0.5), ArgumentError);
}

TEST(LinkLoad, ObservedUniformUtilizationIsBalanced) {
  const Topology topo = build_oft(4);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  (void)stack.run_open_loop(uni, 0.6, us(30), us(6));
  RunningStats util;
  for (const auto& cs : stack.sim().channel_stats()) util.add(cs.utilization);
  EXPECT_GT(util.mean(), 0.2);
  // Balanced topology + uniform traffic: no channel should be wildly off
  // the mean.
  EXPECT_LT(util.max(), 2.5 * util.mean());
}

// --------------------------------------------------------- fault injection

TEST(Degrade, RemovesRequestedLinksAndStaysConnected) {
  const Topology topo = build_slim_fly(5);
  Rng rng(3);
  const DegradeResult deg = remove_random_links(topo, 20, rng);
  EXPECT_EQ(static_cast<int>(deg.removed.size()), 20);
  EXPECT_EQ(deg.topo.num_links(), topo.num_links() - 20);
  EXPECT_EQ(deg.topo.num_nodes(), topo.num_nodes());
  const DistanceMatrix dist = all_pairs_distances(deg.topo);
  EXPECT_GE(diameter(dist), 2);  // connected (diameter() throws otherwise)
}

TEST(Degrade, DiameterGrowsUnderHeavyDamage) {
  const Topology topo = build_mlfm(4);
  Rng rng(5);
  const DegradeResult deg = remove_random_links(topo, topo.num_links() / 3, rng);
  const DistanceMatrix dist = all_pairs_distances(deg.topo);
  EXPECT_GT(node_diameter(deg.topo, dist), 2);
}

TEST(Degrade, SimulatorStillDeliversOnDegradedNetwork) {
  const Topology topo = build_oft(4);
  Rng rng(7);
  const DegradeResult deg = remove_random_links(topo, 10, rng);
  SimConfig cfg;
  SimStack stack(deg.topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(deg.topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 0.2, us(20), us(4));
  EXPECT_NEAR(r.accepted_throughput, 0.2, 0.02);
}

TEST(Degrade, KeepConnectedNeverPartitions) {
  const Topology topo = build_mlfm(3);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    // Try to remove almost everything; the guard must keep a spanning tree.
    const DegradeResult deg =
        remove_random_links(topo, topo.num_links() - 1, rng, /*keep_connected=*/true);
    const DistanceMatrix dist = all_pairs_distances(deg.topo);
    EXPECT_GE(diameter(dist), 1);  // throws if disconnected
    EXPECT_GE(deg.topo.num_links(), deg.topo.num_routers() - 1);
  }
}

TEST(Degrade, RejectsRemovingAllLinks) {
  const Topology topo = build_mlfm(3);
  Rng rng(1);
  EXPECT_THROW(remove_random_links(topo, topo.num_links(), rng), ArgumentError);
  EXPECT_THROW(remove_random_links(topo, topo.num_links() + 5, rng), ArgumentError);
  EXPECT_THROW(remove_random_links(topo, -1, rng), ArgumentError);
}

TEST(Degrade, ZeroCountIsIdentity) {
  const Topology topo = build_slim_fly(5);
  Rng rng(4);
  const DegradeResult deg = remove_random_links(topo, 0, rng);
  EXPECT_TRUE(deg.removed.empty());
  EXPECT_EQ(deg.requested, 0);
  EXPECT_FALSE(deg.shortfall());
  EXPECT_EQ(deg.topo.num_links(), topo.num_links());
  EXPECT_EQ(deg.topo.num_nodes(), topo.num_nodes());
}

TEST(Degrade, FixedSeedIsDeterministic) {
  const Topology topo = build_oft(4);
  Rng rng_a(9);
  Rng rng_b(9);
  const DegradeResult a = remove_random_links(topo, 15, rng_a);
  const DegradeResult b = remove_random_links(topo, 15, rng_b);
  ASSERT_EQ(a.removed.size(), b.removed.size());
  for (std::size_t i = 0; i < a.removed.size(); ++i) {
    EXPECT_EQ(a.removed[i].r1, b.removed[i].r1);
    EXPECT_EQ(a.removed[i].r2, b.removed[i].r2);
  }
  ASSERT_EQ(a.topo.num_links(), b.topo.num_links());
  for (int i = 0; i < a.topo.num_links(); ++i) {
    EXPECT_EQ(a.topo.links()[i].r1, b.topo.links()[i].r1);
    EXPECT_EQ(a.topo.links()[i].r2, b.topo.links()[i].r2);
  }
}

TEST(Degrade, ShortfallIsReportedWhenTheGuardVetoes) {
  // Asking for all-but-one link with keep_connected forces vetoes on every
  // seed: a spanning tree of R routers needs R - 1 links.
  const Topology topo = build_mlfm(3);
  Rng rng(2);
  const DegradeResult deg =
      remove_random_links(topo, topo.num_links() - 1, rng, /*keep_connected=*/true);
  EXPECT_EQ(deg.requested, topo.num_links() - 1);
  EXPECT_TRUE(deg.shortfall());
  EXPECT_LT(static_cast<int>(deg.removed.size()), deg.requested);
}

}  // namespace
}  // namespace d2net
