// Tests for minimal tables, Valiant, UGAL and the deadlock-freedom (CDG)
// obligations of Section 3 of the paper.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "routing/cdg.h"
#include "routing/factory.h"
#include "routing/minimal_routing.h"
#include "routing/minimal_table.h"
#include "routing/ugal_routing.h"
#include "routing/valiant_routing.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"
#include "topology/topology.h"

namespace d2net {
namespace {

/// Checks that `route` is a contiguous walk on the topology.
void expect_valid_walk(const Topology& topo, const Route& r) {
  ASSERT_GE(r.routers.size(), 2u);
  ASSERT_EQ(r.vcs.size(), r.routers.size() - 1);
  for (std::size_t i = 0; i + 1 < r.routers.size(); ++i) {
    EXPECT_TRUE(topo.connected(r.routers[i], r.routers[i + 1]))
        << r.routers[i] << "->" << r.routers[i + 1];
  }
}

// ----------------------------------------------------------- MinimalTable

TEST(MinimalTable, DistancesMatchDiameterTwo) {
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  EXPECT_EQ(table.diameter(), 2);
  for (int a = 0; a < topo.num_routers(); ++a) {
    EXPECT_EQ(table.distance(a, a), 0);
    for (int b : topo.neighbors(a)) EXPECT_EQ(table.distance(a, b), 1);
  }
}

TEST(MinimalTable, SampledPathsAreMinimalWalks) {
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const int a = static_cast<int>(rng.next_below(topo.num_routers()));
    const int b = static_cast<int>(rng.next_below(topo.num_routers()));
    if (a == b) continue;
    const auto path = table.sample_path(a, b, rng);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, table.distance(a, b));
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(topo.connected(path[i], path[i + 1]));
    }
  }
}

TEST(MinimalTable, EnumerationMatchesPathCounts) {
  const int h = 3;
  const Topology topo = build_mlfm(h);
  const MinimalTable table(topo);
  std::vector<std::vector<int>> paths;
  // Same-column LR pair: h paths.
  table.enumerate_paths(mlfm_lr_id(h, 0, 1), mlfm_lr_id(h, 1, 1), paths);
  EXPECT_EQ(static_cast<int>(paths.size()), h);
  paths.clear();
  // Cross-column LR pair: exactly 1 path.
  table.enumerate_paths(mlfm_lr_id(h, 0, 1), mlfm_lr_id(h, 1, 2), paths);
  EXPECT_EQ(paths.size(), 1u);
}

// --------------------------------------------------------------- Minimal

class RoutingOnTopologies : public ::testing::TestWithParam<int> {
 protected:
  Topology make_topo() const {
    switch (GetParam()) {
      case 0: return build_slim_fly(5);
      case 1: return build_mlfm(4);
      default: return build_oft(4);
    }
  }
};

TEST_P(RoutingOnTopologies, MinimalRoutesAreShortest) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  MinimalRouting algo(table, vc_policy_for(topo.kind()));
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const int a = static_cast<int>(rng.next_below(topo.num_routers()));
    const int b = static_cast<int>(rng.next_below(topo.num_routers()));
    if (a == b) continue;
    const Route r = algo.route(a, b, rng);
    expect_valid_walk(topo, r);
    EXPECT_EQ(r.hops(), table.distance(a, b));
    EXPECT_TRUE(r.minimal());
  }
}

TEST_P(RoutingOnTopologies, ValiantRoutesAreTwoMinimalSegments) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  ValiantRouting algo(table, vc_policy_for(topo.kind()), valiant_intermediates(topo));
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const int a = static_cast<int>(rng.next_below(topo.num_routers()));
    const int b = static_cast<int>(rng.next_below(topo.num_routers()));
    if (a == b) continue;
    const Route r = algo.route(a, b, rng);
    expect_valid_walk(topo, r);
    ASSERT_GE(r.intermediate_pos, 1);
    ASSERT_LT(r.intermediate_pos, static_cast<int>(r.routers.size()));
    const int via = r.routers[r.intermediate_pos];
    EXPECT_NE(via, a);
    EXPECT_NE(via, b);
    EXPECT_EQ(r.intermediate_pos, table.distance(a, via));
    EXPECT_EQ(r.hops() - r.intermediate_pos, table.distance(via, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RoutingOnTopologies, ::testing::Values(0, 1, 2));

TEST(Valiant, IndirectTopologiesUseOnlyEdgeIntermediates) {
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  ValiantRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo));
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const Route r = algo.route(0, 5, rng);
    const int via = r.routers[r.intermediate_pos];
    EXPECT_GT(topo.endpoints_of(via), 0) << "intermediate must host endpoints";
    // Section 3.2: indirect MLFM/OFT routes have exactly 4 hops.
    EXPECT_EQ(r.hops(), 4);
  }
}

TEST(Valiant, SlimFlyIndirectLengths2To4) {
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  ValiantRouting algo(table, VcPolicy::kHopIndex, valiant_intermediates(topo));
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const Route r = algo.route(1, 40, rng);
    EXPECT_GE(r.hops(), 2);
    EXPECT_LE(r.hops(), 4);
  }
}

// ------------------------------------------------------- inline storage

TEST(InlineVec, SixteenBitRouterIdsRoundTripAtCapacity) {
  // Route::routers stores router ids as uint16_t with a one-byte count; the
  // full id range and the full capacity must survive resize, assign and copy.
  using Ids = InlineVec<std::uint16_t, 24>;
  static_assert(std::is_same_v<decltype(Route::routers), Ids>);
  Ids v;
  std::vector<int> expect;
  for (int i = 0; i < Ids::capacity(); ++i) {
    const int id = i == 0 ? 65'535 : 65'535 - 2'849 * i;
    v.push_back(static_cast<std::uint16_t>(id));
    expect.push_back(id);
  }
  ASSERT_EQ(v.size(), 24u);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), expect);
  EXPECT_EQ(v.front(), 65'535);

  const Ids copy = v;
  EXPECT_EQ(std::vector<int>(copy.begin(), copy.end()), expect);

  v.resize(3);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
            (std::vector<int>{expect[0], expect[1], expect[2]}));
  v.resize(24);  // zero-fill growth
  EXPECT_EQ(v.size(), 24u);
  EXPECT_EQ(v[3], 0);
  EXPECT_EQ(v.back(), 0);

  v.assign(24, std::uint16_t{65'535});
  EXPECT_EQ(v.size(), 24u);
  for (const std::uint16_t id : v) EXPECT_EQ(id, 65'535);
  v.assign(expect.begin(), expect.end());
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), expect);
  EXPECT_EQ(std::vector<int>(copy.begin(), copy.end()), expect);  // copy is independent
}

// -------------------------------------------------------------------- VCs

TEST(VcPolicy, HopIndexAssignsIncreasingVcs) {
  Route r;
  r.routers = {1, 2, 3, 4, 5};
  r.intermediate_pos = 2;
  assign_vcs(r, VcPolicy::kHopIndex);
  EXPECT_EQ(std::vector<std::uint8_t>(r.vcs.begin(), r.vcs.end()),
            (std::vector<std::uint8_t>{0, 1, 2, 3}));
}

TEST(VcPolicy, PhasePolicySplitsAtIntermediate) {
  Route r;
  r.routers = {1, 2, 3, 4, 5};
  r.intermediate_pos = 2;
  assign_vcs(r, VcPolicy::kPhase);
  EXPECT_EQ(std::vector<std::uint8_t>(r.vcs.begin(), r.vcs.end()),
            (std::vector<std::uint8_t>{0, 0, 1, 1}));
  Route m;
  m.routers = {1, 2, 3};
  m.intermediate_pos = -1;
  assign_vcs(m, VcPolicy::kPhase);
  EXPECT_EQ(std::vector<std::uint8_t>(m.vcs.begin(), m.vcs.end()),
            (std::vector<std::uint8_t>{0, 0}));
}

// ------------------------------------------------------------------- UGAL

/// Load provider scripted per (router, next hop).
class ScriptedLoads final : public PortLoadProvider {
 public:
  std::int64_t output_queue_bytes(int router, int next) const override {
    auto it = loads_.find({router, next});
    return it == loads_.end() ? 0 : it->second;
  }
  std::int64_t output_queue_capacity() const override { return 1000; }
  void set(int router, int next, std::int64_t bytes) { loads_[{router, next}] = bytes; }

 private:
  std::map<std::pair<int, int>, std::int64_t> loads_;
};

TEST(Ugal, PrefersMinimalOnEmptyNetwork) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ZeroLoadProvider loads;
  UgalParams params = default_ugal_params(topo.kind(), false);
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const Route r = algo.route(0, 7, rng);
    EXPECT_TRUE(r.minimal());
    EXPECT_EQ(r.hops(), table.distance(0, 7));
  }
}

TEST(Ugal, DivertsWhenMinimalPathCongested) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  // Congest every minimal first hop from router 0 toward router 7 (their
  // single common GR) far beyond any alternative.
  const int src = 0;
  const int dst = 7;  // different column -> unique minimal path
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 900);
  UgalParams params;
  params.num_indirect = 8;
  params.c = 1.0;
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(17);
  int indirect = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const Route r = algo.route(src, dst, rng);
    indirect += r.minimal() ? 0 : 1;
  }
  EXPECT_GT(indirect, 90);
}

TEST(Ugal, ThresholdForcesMinimalUnderLightLoad) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  const int src = 0;
  const int dst = 7;
  // Mild congestion: 5% of capacity, below the 10% threshold.
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 50);
  UgalParams params;
  params.num_indirect = 8;
  params.c = 0.1;  // would otherwise strongly favor indirect
  params.threshold = 0.10;
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    EXPECT_TRUE(algo.route(src, dst, rng).minimal());
  }
}

TEST(Ugal, CostComparisonUsesPenalty) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  const int src = 0;
  const int dst = 7;
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 100);
  // All other ports are empty, so indirect candidates cost 0 * c = 0 < 100:
  // generic UGAL diverts (this is exactly the paper's "drawback" behavior).
  UgalParams params;
  params.num_indirect = 4;
  params.c = 1000.0;  // penalty does not matter against empty queues
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(23);
  int indirect = 0;
  for (int trial = 0; trial < 100; ++trial) {
    indirect += algo.route(src, dst, rng).minimal() ? 0 : 1;
  }
  EXPECT_GT(indirect, 50);
}

TEST(Ugal, LengthScaledCostFormulaIsExact) {
  // Quantitative check of the SF-A cost (Section 3.3): c_eff = cSF * L_I /
  // L_M. On the MLFM every indirect candidate is 4 hops against a 2-hop
  // minimal route, so c_eff = 2 * cSF deterministically. With the minimal
  // first hop at occupancy 100 and every alternative at 60:
  //   cSF = 1.0 -> indirect cost 2 * 60 = 120 > 100 -> never divert;
  //   cSF = 0.5 -> indirect cost 1 * 60 =  60 < 100 -> divert whenever the
  //   candidate's first hop is not the congested port itself.
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  const int src = 0;
  const int dst = 7;  // different column: unique minimal path
  ScriptedLoads loads;
  for (int nb : topo.neighbors(src)) loads.set(src, nb, 60);
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 100);

  auto diverted_fraction = [&](double c_sf) {
    UgalParams params;
    params.num_indirect = 1;
    params.c = c_sf;
    params.sf_length_scaling = true;
    UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
    Rng rng(41);
    int diverted = 0;
    for (int trial = 0; trial < 300; ++trial) {
      diverted += algo.route(src, dst, rng).minimal() ? 0 : 1;
    }
    return diverted / 300.0;
  };

  EXPECT_DOUBLE_EQ(diverted_fraction(1.0), 0.0);
  EXPECT_GT(diverted_fraction(0.5), 0.7);
}

TEST(Ugal, SlimFlyLengthScaling) {
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  ZeroLoadProvider zero;
  (void)zero;
  UgalParams params = default_ugal_params(topo.kind(), false);
  EXPECT_TRUE(params.sf_length_scaling);
  UgalRouting algo(table, VcPolicy::kHopIndex, valiant_intermediates(topo), params, loads,
                   "SF-A");
  Rng rng(29);
  const Route r = algo.route(0, 30, rng);
  expect_valid_walk(topo, r);
}

// --------------------------------------------------------------- Factory

TEST(Factory, VcPoliciesPerTopology) {
  EXPECT_EQ(vc_policy_for(TopologyKind::kSlimFly), VcPolicy::kHopIndex);
  EXPECT_EQ(vc_policy_for(TopologyKind::kMlfm), VcPolicy::kPhase);
  EXPECT_EQ(vc_policy_for(TopologyKind::kOft), VcPolicy::kPhase);
}

TEST(Factory, BuildsAllStrategies) {
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  ZeroLoadProvider loads;
  for (RoutingStrategy s : {RoutingStrategy::kMinimal, RoutingStrategy::kValiant,
                            RoutingStrategy::kUgal, RoutingStrategy::kUgalThreshold}) {
    const auto algo = make_routing(topo, table, s, loads);
    ASSERT_NE(algo, nullptr);
    Rng rng(31);
    expect_valid_walk(topo, algo->route(0, 9, rng));
  }
}

TEST(Factory, PaperDefaultParams) {
  const UgalParams sf = default_ugal_params(TopologyKind::kSlimFly, false);
  EXPECT_EQ(sf.num_indirect, 4);
  EXPECT_TRUE(sf.sf_length_scaling);
  const UgalParams mlfm = default_ugal_params(TopologyKind::kMlfm, false);
  EXPECT_EQ(mlfm.num_indirect, 5);
  EXPECT_DOUBLE_EQ(mlfm.c, 2.0);
  const UgalParams oft = default_ugal_params(TopologyKind::kOft, true);
  EXPECT_EQ(oft.num_indirect, 1);
  EXPECT_DOUBLE_EQ(oft.threshold, 0.10);
}

// ------------------------------------------------- Deadlock freedom (CDG)

class DeadlockFreedom : public ::testing::TestWithParam<int> {
 protected:
  Topology make_topo() const {
    switch (GetParam()) {
      case 0: return build_slim_fly(5);
      case 1: return build_mlfm(4);
      default: return build_oft(4);
    }
  }
};

TEST_P(DeadlockFreedom, MinimalRoutingIsDeadlockFree) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  const CdgReport report =
      check_minimal_deadlock_freedom(topo, table, vc_policy_for(topo.kind()));
  EXPECT_TRUE(report.acyclic);
  EXPECT_GT(report.edges, 0);
}

TEST_P(DeadlockFreedom, IndirectRoutingIsDeadlockFreeWithVcs) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  const CdgReport report = check_indirect_deadlock_freedom(
      topo, table, vc_policy_for(topo.kind()), valiant_intermediates(topo));
  EXPECT_TRUE(report.acyclic);
}

INSTANTIATE_TEST_SUITE_P(Topologies, DeadlockFreedom, ::testing::Values(0, 1, 2));

TEST(DeadlockFreedomNegative, SlimFlySingleVcMinimalHasCycles) {
  // Without hop-indexed VCs, SF minimal routing's CDG contains cycles:
  // this is why Besta & Hoefler use 2 VCs.
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  const CdgReport report = check_minimal_deadlock_freedom(topo, table, VcPolicy::kPhase);
  EXPECT_FALSE(report.acyclic);
}

TEST(DeadlockFreedomNegative, IndirectOnSingleVcHasCycles) {
  // Indirect routes are towards/away/towards/away (Section 3.4): on a
  // single VC the CDG contains cycles for all three topologies — the
  // negative control justifying the 2-VC (MLFM/OFT) and 4-VC (SF) schemes.
  for (int which = 0; which < 3; ++which) {
    const Topology topo = which == 0   ? build_slim_fly(5)
                          : which == 1 ? build_mlfm(4)
                                       : build_oft(4);
    const MinimalTable table(topo);
    const CdgReport bad =
        check_indirect_single_vc(topo, table, valiant_intermediates(topo));
    EXPECT_FALSE(bad.acyclic) << topo.name();
  }
}

}  // namespace
}  // namespace d2net
