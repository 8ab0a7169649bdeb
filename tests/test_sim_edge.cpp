// Simulator edge cases: backpressure with tiny buffers, generic topologies
// (Fat-Trees, HyperX) through the engine, degraded networks with stretched
// diameters, fairness, and latency monotonicity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.h"
#include "sim/experiment.h"
#include "sim/network.h"
#include "topology/degrade.h"
#include "topology/fat_tree.h"
#include "topology/hyperx.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

TEST(SimEdge, TinyBuffersStillDeliverAndThrottle) {
  // One packet of buffering per VC: heavy backpressure, but no deadlock and
  // no loss — throughput degrades gracefully.
  const Topology topo = build_mlfm(3);
  SimConfig cfg;
  cfg.buffer_bytes_per_port = 512;  // 2 packets per port
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 1.0, us(20), us(4));
  // 512 B cannot cover the ~150 ns credit round-trip at 100 Gb/s (~1.9 KB
  // bandwidth-delay product), so links run at a fraction of line rate —
  // but traffic still flows and nothing deadlocks.
  EXPECT_GT(r.accepted_throughput, 0.05);
  EXPECT_LT(r.accepted_throughput, 0.5);
}

TEST(SimEdge, BufferTooSmallForPacketIsRejected) {
  const Topology topo = build_mlfm(3);
  SimConfig cfg;
  cfg.buffer_bytes_per_port = 100;  // < one 256 B packet
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, cfg), ArgumentError);
}

TEST(SimEdge, FatTree2RunsAtFullBisection) {
  const Topology topo = build_fat_tree2(8);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 0.9, us(24), us(4));
  EXPECT_GT(r.accepted_throughput, 0.85);
}

TEST(SimEdge, FatTree3HandlesFourHopRoutes) {
  const Topology topo = build_fat_tree3(4);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 0.5, us(24), us(4));
  EXPECT_NEAR(r.accepted_throughput, 0.5, 0.05);
  EXPECT_GT(r.avg_hops, 2.0);  // mix of 2- and 4-hop routes
}

TEST(SimEdge, HyperXDiameterTwo) {
  const Topology topo = build_hyperx2d_balanced(9);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 0.8, us(24), us(4));
  EXPECT_GT(r.accepted_throughput, 0.75);
  EXPECT_LE(r.avg_hops, 2.0);
}

TEST(SimEdge, DegradedSlimFlyWithStretchedDiameter) {
  // Removing links stretches some minimal paths to 3 hops; the hop-indexed
  // VC provisioning must follow the new diameter automatically.
  const Topology topo = build_slim_fly(5);
  Rng rng(11);
  const DegradeResult deg = remove_random_links(topo, 40, rng);
  const MinimalTable table(deg.topo);
  EXPECT_GE(table.diameter(), 2);
  SimConfig cfg;
  SimStack stack(deg.topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(deg.topo.num_nodes());
  const OpenLoopResult r = stack.run_open_loop(uni, 0.3, us(20), us(4));
  EXPECT_NEAR(r.accepted_throughput, 0.3, 0.03);
}

TEST(SimEdge, LatencyIsMonotonicInLoadUnderUniform) {
  const Topology topo = build_oft(4);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  double last = 0.0;
  for (double load : {0.1, 0.4, 0.7, 0.95}) {
    const OpenLoopResult r = stack.run_open_loop(uni, load, us(20), us(4));
    EXPECT_GE(r.avg_latency_ns, last * 0.98) << load;  // allow sampling noise
    last = r.avg_latency_ns;
  }
}

TEST(SimEdge, PerRunIsolation) {
  // Back-to-back runs on the same stack must not leak state.
  const Topology topo = build_mlfm(3);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kValiant, cfg);
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult a = stack.run_open_loop(uni, 0.5, us(16), us(4));
  const OpenLoopResult heavy = stack.run_open_loop(uni, 1.0, us(16), us(4));
  const OpenLoopResult b = stack.run_open_loop(uni, 0.5, us(16), us(4));
  (void)heavy;
  EXPECT_DOUBLE_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
}

TEST(SimEdge, InvalidRunParametersThrow) {
  const Topology topo = build_mlfm(3);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  EXPECT_THROW(stack.run_open_loop(uni, 0.0, us(10), us(1)), ArgumentError);
  EXPECT_THROW(stack.run_open_loop(uni, 1.5, us(10), us(1)), ArgumentError);
  EXPECT_THROW(stack.run_open_loop(uni, 0.5, us(10), us(20)), ArgumentError);
}

TEST(SimEdge, FractionMinimalReportsObliviousExtremes) {
  const Topology topo = build_oft(4);
  SimConfig cfg;
  UniformTraffic uni(topo.num_nodes());
  SimStack min_stack(topo, RoutingStrategy::kMinimal, cfg);
  EXPECT_DOUBLE_EQ(min_stack.run_open_loop(uni, 0.3, us(12), us(2)).fraction_minimal, 1.0);
  SimStack inr_stack(topo, RoutingStrategy::kValiant, cfg);
  // Valiant never routes minimally across the network; the small residue
  // is same-router traffic, which bypasses routing entirely.
  EXPECT_LT(inr_stack.run_open_loop(uni, 0.3, us(12), us(2)).fraction_minimal, 0.05);
}

TEST(SimEdge, SteadyStateIsStationary) {
  // The measurement window is long enough that doubling it moves accepted
  // throughput by well under 1% — the stationarity claim behind the scaled
  // 16 us default (DESIGN.md).
  const Topology topo = build_mlfm(4);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult short_run = stack.run_open_loop(uni, 0.8, us(16), us(4));
  const OpenLoopResult long_run = stack.run_open_loop(uni, 0.8, us(32), us(4));
  EXPECT_NEAR(short_run.accepted_throughput, long_run.accepted_throughput, 0.008);
  EXPECT_NEAR(short_run.avg_latency_ns, long_run.avg_latency_ns,
              0.05 * long_run.avg_latency_ns);
}

TEST(SimEdge, MoreRoutersThanSixteenBitRouteIdsAreRejected) {
  // Packets store their routes as 16-bit router ids, so the constructor
  // rejects a larger network before it allocates any per-router state.
  Topology ring("ring", TopologyKind::kCustom);
  const int n = Route::kMaxRouterIds + 1;
  for (int r = 0; r < n; ++r) ring.add_router({}, r == 0 ? 1 : 0);
  for (int r = 0; r < n; ++r) ring.add_link(r, (r + 1) % n);
  ring.finalize();
  try {
    NetworkSim sim(ring, SimConfig{}, 2);
    FAIL() << "a " << n << "-router network was accepted";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("65,536 routers"), std::string::npos) << e.what();
  }
}

TEST(SimEdge, PacketTraceRecordsDeliveries) {
  const Topology topo = build_mlfm(3);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  PacketTraceSink trace;
  stack.sim().set_trace(&trace);
  auto shift = make_node_shift(topo.num_nodes(), topo.endpoints_of(0));
  const OpenLoopResult r = stack.run_open_loop(*shift, 0.1, us(16), us(4));
  // The trace holds every in-window delivery — the measured packets plus
  // the warmup-born carryover the latency statistics exclude.
  ASSERT_EQ(static_cast<std::int64_t>(trace.entries().size()),
            r.phases.delivered_measured + r.phases.delivered_carryover);
  std::int64_t window_born = 0;
  for (const PacketTraceEntry& e : trace.entries()) {
    window_born += e.gen_time >= us(4) ? 1 : 0;
  }
  EXPECT_EQ(window_born, r.packets_measured);
  for (const PacketTraceEntry& e : trace.entries()) {
    EXPECT_EQ(e.hops, 2);
    EXPECT_TRUE(e.minimal);
    EXPECT_GE(e.inject_time, e.gen_time);
    EXPECT_GT(e.eject_time, e.inject_time);
    EXPECT_EQ((e.dst_node - e.src_node + topo.num_nodes()) % topo.num_nodes(),
              topo.endpoints_of(0));
  }
  std::ostringstream os;
  trace.write_csv(os);
  EXPECT_NE(os.str().find("latency_ns"), std::string::npos);
}

TEST(SimEdge, PacketTraceCapacityBounds) {
  const Topology topo = build_mlfm(3);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  PacketTraceSink trace(/*capacity=*/10);
  stack.sim().set_trace(&trace);
  UniformTraffic uni(topo.num_nodes());
  (void)stack.run_open_loop(uni, 0.5, us(16), us(2));
  EXPECT_EQ(trace.entries().size(), 10u);
  EXPECT_GT(trace.dropped(), 0);
}

TEST(SimEdge, CutThroughRemovesPerHopSerialization) {
  // Store-and-forward 2-hop latency: 4*(20.48 + 50) + 3*100 = 581.92 ns.
  // VCT keeps only the final-link serialization: 3*50 + (20.48+50) + 300
  // = 520.48 ns.
  const Topology topo = build_mlfm(3);
  SimConfig vct;
  vct.cut_through = true;
  SimStack stack(topo, RoutingStrategy::kMinimal, vct);
  auto shift = make_node_shift(topo.num_nodes(), topo.endpoints_of(0));
  const OpenLoopResult r = stack.run_open_loop(*shift, 0.01, us(40), us(4));
  ASSERT_GT(r.packets_measured, 100);
  EXPECT_NEAR(r.avg_latency_ns, 520.5, 12.0);
}

TEST(SimEdge, CutThroughKeepsSaturationBehavior) {
  const Topology topo = build_oft(4);
  UniformTraffic uni(topo.num_nodes());
  SimConfig sf_cfg;
  SimConfig vct_cfg;
  vct_cfg.cut_through = true;
  SimStack sf_stack(topo, RoutingStrategy::kMinimal, sf_cfg);
  SimStack vct_stack(topo, RoutingStrategy::kMinimal, vct_cfg);
  const OpenLoopResult a = sf_stack.run_open_loop(uni, 1.0, us(24), us(6));
  const OpenLoopResult b = vct_stack.run_open_loop(uni, 1.0, us(24), us(6));
  EXPECT_NEAR(a.accepted_throughput, b.accepted_throughput, 0.02);
  EXPECT_LT(b.avg_latency_ns, a.avg_latency_ns);  // strictly faster per hop
}

TEST(SimEdge, CutThroughRejectsSlowRouters) {
  const Topology topo = build_mlfm(3);
  SimConfig cfg;
  cfg.cut_through = true;
  cfg.router_latency = ns(10);  // < 20.48 ns packet serialization
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, cfg), ArgumentError);
}

TEST(SimEdge, SameRouterTrafficBypassesNetwork) {
  // A shift of 1 inside a p=7 router keeps most traffic router-local; the
  // network channels stay almost idle while throughput is full.
  const Topology topo = build_mlfm(7);
  SimConfig cfg;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  auto shift = make_node_shift(topo.num_nodes(), 1);
  const OpenLoopResult r = stack.run_open_loop(*shift, 0.9, us(16), us(4));
  EXPECT_GT(r.accepted_throughput, 0.85);
  EXPECT_LT(r.avg_hops, 0.5);  // 6 of 7 pairs stay on their router
}

}  // namespace
}  // namespace d2net
