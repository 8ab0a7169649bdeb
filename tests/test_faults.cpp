// Fault-injection layer tests: the empty-schedule inertness guarantee,
// drop/retry/salvage accounting, incremental table invalidation, link
// restoration, and the no-progress watchdog. Same discipline as
// test_metrics.cpp: the layer must be invisible until a fault actually
// fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/error.h"
#include "routing/minimal_table.h"
#include "sim/exchange.h"
#include "sim/experiment.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/traffic.h"
#include "topology/mlfm.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

SimConfig base_config() {
  SimConfig cfg;
  cfg.seed = 11;
  return cfg;
}

void expect_same_core_results(const OpenLoopResult& a, const OpenLoopResult& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_DOUBLE_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_DOUBLE_EQ(a.avg_hops, b.avg_hops);
  EXPECT_DOUBLE_EQ(a.fraction_minimal, b.fraction_minimal);
  EXPECT_EQ(a.phases.in_flight_at_end, b.phases.in_flight_at_end);
}

// ---------------------------------------------------- inertness guarantee

TEST(Faults, EmptyScheduleIsBitIdenticalWithWatchdogOnOrOff) {
  // The watchdog is armed on every run by default; it must observe without
  // perturbing. UGAL is the most sensitive strategy (live queue state).
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig with = base_config();                // watchdog at the default 50us
  SimConfig without = base_config();
  without.fault.watchdog_interval = 0;
  SimStack a(topo, RoutingStrategy::kUgal, with);
  SimStack b(topo, RoutingStrategy::kUgal, without);
  const OpenLoopResult ra = a.run_open_loop(uni, 0.8, us(12), us(3));
  const OpenLoopResult rb = b.run_open_loop(uni, 0.8, us(12), us(3));
  expect_same_core_results(ra, rb);
  EXPECT_FALSE(ra.faults.enabled);
  EXPECT_FALSE(ra.faults.wedged);
  EXPECT_EQ(ra.faults.watchdog.time, -1);
}

// ------------------------------------------------- schedule validation

TEST(Faults, ScheduleAfterRunEndIsRejected) {
  // Entries timed past the run end used to vanish silently (the kFault
  // event was queued but never popped); now they are rejected up front with
  // the offending entry named.
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(1000), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  SimStack stack(topo, RoutingStrategy::kUgal, cfg);
  try {
    stack.run_open_loop(uni, 0.8, us(12), us(3));
    FAIL() << "post-run-end schedule entry was accepted";
  } catch (const ArgumentError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("entry #0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("after the run ends"), std::string::npos) << msg;
  }
}

TEST(Faults, ScheduleWithBogusIdsIsRejected) {
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  {
    SimConfig cfg = base_config();
    cfg.fault.schedule.push_back({us(4), FaultKind::kRouterDown, topo.num_routers(), -1});
    SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
    EXPECT_THROW(stack.run_open_loop(uni, 0.5, us(12), us(3)), ArgumentError);
  }
  {
    // Two valid router ids that do not share a link.
    const Topology t = build_slim_fly(5);
    int u = 0;
    int v = -1;
    for (int r = 1; r < t.num_routers() && v < 0; ++r) {
      bool adj = false;
      for (int n : t.neighbors(u)) adj |= n == r;
      if (!adj) v = r;
    }
    ASSERT_GE(v, 0);
    SimConfig cfg = base_config();
    cfg.fault.schedule.push_back({us(4), FaultKind::kLinkDown, u, v});
    SimStack stack(t, RoutingStrategy::kMinimal, cfg);
    EXPECT_THROW(stack.run_open_loop(uni, 0.5, us(12), us(3)), ArgumentError);
  }
}

TEST(Faults, WarmupOnlyScheduleWarnsButStillRuns) {
  // All faults inside the warmup is legal (the warning is advisory): the
  // run proceeds and applies them.
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  const int u = topo.links()[0].r1;
  const int v = topo.links()[0].r2;
  cfg.fault.schedule.push_back({us(1), FaultKind::kLinkDown, u, v});
  cfg.fault.schedule.push_back({us(2), FaultKind::kLinkUp, u, v});
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.5, us(12), us(3));
  EXPECT_EQ(r.faults.faults_applied, 2);
  EXPECT_FALSE(r.faults.wedged);
}

TEST(Faults, RetryBackoffBelowLinkLatencyRuns) {
  // The backoff only delays the source re-injection; nothing requires it
  // to cover a link latency.
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  cfg.fault.recovery = FaultRecovery::kRetry;
  cfg.fault.retry_backoff = cfg.link_latency / 2;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  EXPECT_NO_THROW(stack.run_open_loop(uni, 0.5, us(12), us(3)));
}

TEST(Faults, ExchangeWithEmptyScheduleMatchesWatchdogOff) {
  const Topology topo = build_mlfm(4);
  SimConfig without = base_config();
  without.fault.watchdog_interval = 0;
  SimStack a(topo, RoutingStrategy::kMinimal, base_config());
  SimStack b(topo, RoutingStrategy::kMinimal, without);
  const ExchangePlan plan = make_all_to_all_plan(topo.num_nodes(), 4096);
  const ExchangeResult ra = a.run_exchange(plan, us(2000));
  const ExchangeResult rb = b.run_exchange(plan, us(2000));
  ASSERT_TRUE(ra.completed);
  ASSERT_TRUE(rb.completed);
  EXPECT_DOUBLE_EQ(ra.completion_us, rb.completion_us);
  EXPECT_DOUBLE_EQ(ra.effective_throughput, rb.effective_throughput);
  EXPECT_DOUBLE_EQ(ra.avg_latency_ns, rb.avg_latency_ns);
  EXPECT_EQ(ra.delivered_bytes, ra.total_bytes);
}

// --------------------------------------------------- drop/retry/salvage

TEST(Faults, StaticRoutingLosesEverythingACutLinkCarried) {
  // No reroute, no recovery: the paper-pessimal baseline. Every packet that
  // was on or aimed at the dead link is dropped and permanently lost.
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  cfg.fault.recovery = FaultRecovery::kNone;
  cfg.fault.reroute = false;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.7, us(12), us(3));
  EXPECT_TRUE(r.faults.enabled);
  EXPECT_EQ(r.faults.faults_applied, 1);
  EXPECT_GT(r.faults.packets_dropped, 0);
  EXPECT_EQ(r.faults.packets_lost, r.faults.packets_dropped);
  EXPECT_EQ(r.faults.packets_retried, 0);
  EXPECT_EQ(r.faults.reroutes, 0);
  EXPECT_FALSE(r.faults.wedged);
}

TEST(Faults, SourceRetryRedeliversDroppedPackets) {
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  cfg.fault.recovery = FaultRecovery::kRetry;
  cfg.fault.reroute = true;  // the retried route must avoid the dead link
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.7, us(12), us(3));
  EXPECT_GT(r.faults.packets_dropped, 0);
  EXPECT_GT(r.faults.packets_retried, 0);
  // One cut leaves q=5 Slim Fly connected, so every retry finds a path.
  EXPECT_EQ(r.faults.packets_lost, 0);
  EXPECT_EQ(r.faults.unreachable_pairs, 0);
  EXPECT_GT(r.accepted_throughput, 0.5);
}

TEST(Faults, SalvageReroutesMidPathWithoutLoss) {
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  // Defaults: kSalvage + reroute.
  SimStack stack(topo, RoutingStrategy::kUgalThreshold, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.7, us(12), us(3));
  EXPECT_GT(r.faults.reroutes, 0);
  EXPECT_EQ(r.faults.packets_lost, 0);
  EXPECT_GT(r.accepted_throughput, 0.5);
}

TEST(Faults, RecoveryBucketsAccountForEveryDeliveredByte) {
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  cfg.fault.recovery_sample = us(1);
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.6, us(12), us(3));
  ASSERT_FALSE(r.faults.delivered_bytes_buckets.empty());
  EXPECT_EQ(r.faults.bucket_width, us(1));
  std::int64_t bucketed = 0;
  for (std::int64_t b : r.faults.delivered_bytes_buckets) bucketed += b;
  const std::int64_t delivered = r.phases.delivered_warmup + r.phases.delivered_measured +
                                 r.phases.delivered_carryover;
  EXPECT_EQ(bucketed, delivered * cfg.packet_bytes);
}

TEST(Faults, LinkRestorationResyncsAndKeepsDelivering) {
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  const int u = topo.links()[0].r1;
  const int v = topo.links()[0].r2;
  cfg.fault.schedule.push_back({us(3), FaultKind::kLinkDown, u, v});
  cfg.fault.schedule.push_back({us(6), FaultKind::kLinkUp, u, v});
  cfg.fault.recovery_sample = us(1);
  SimStack stack(topo, RoutingStrategy::kUgalThreshold, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.7, us(12), us(3));
  EXPECT_EQ(r.faults.faults_applied, 2);
  EXPECT_EQ(r.faults.packets_lost, 0);
  EXPECT_FALSE(r.faults.wedged);
  // Delivery in the post-restoration half of the run must continue: the
  // credit resync may not wedge the revived link.
  const auto& buckets = r.faults.delivered_bytes_buckets;
  ASSERT_GE(buckets.size(), 10u);
  for (std::size_t i = 7; i < buckets.size() - 1; ++i) {
    EXPECT_GT(buckets[i], 0) << "no delivery in bucket " << i;
  }
}

TEST(Faults, RouterDownMakesItsEndpointsUnreachable) {
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back({us(4), FaultKind::kRouterDown, 0, -1});
  // A small retry budget with a short backoff so packets for the dead
  // router exhaust it within the run (the default 8-doubling budget spans
  // ~128 us of backoff, far beyond this 12 us window).
  cfg.fault.max_retries = 2;
  cfg.fault.retry_backoff = ns(200);
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.5, us(12), us(3));
  // Killing one router strands its endpoints: 2 * (R - 1) ordered pairs.
  EXPECT_EQ(r.faults.unreachable_pairs,
            2 * static_cast<std::int64_t>(topo.num_routers() - 1));
  // Packets for the dead router exhaust their retry budget and are lost;
  // the rest of the network keeps operating.
  EXPECT_GT(r.faults.packets_lost, 0);
  EXPECT_GT(r.accepted_throughput, 0.3);
  EXPECT_FALSE(r.faults.wedged);
}

// ------------------------------------------------------------- watchdog

TEST(Faults, WatchdogEndsAnUnfinishableExchangeWithPartialStats) {
  // One node streams to a router that dies mid-transfer, static routing,
  // no recovery: the exchange can never complete. The watchdog must end
  // the run gracefully instead of the time limit (or forever).
  const Topology topo = build_mlfm(4);
  const int src = 0;
  const int src_router = topo.router_of_node(src);
  int dst = -1;
  for (int n = topo.num_nodes() - 1; n >= 0; --n) {
    if (topo.router_of_node(n) != src_router) {
      dst = n;
      break;
    }
  }
  ASSERT_GE(dst, 0);
  ExchangePlan plan;
  plan.name = "wedge";
  plan.per_node.resize(topo.num_nodes());
  plan.per_node[src].push_back({dst, 32768});

  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(1), FaultKind::kRouterDown, topo.router_of_node(dst), -1});
  cfg.fault.recovery = FaultRecovery::kNone;
  cfg.fault.reroute = false;
  cfg.fault.watchdog_interval = us(10);
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const ExchangeResult r = stack.run_exchange(plan, us(1'000'000));
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.faults.wedged);
  EXPECT_GE(r.faults.watchdog.time, us(10));
  // Well before the 1 s time limit.
  EXPECT_LT(r.faults.watchdog.time, us(1000));
  EXPECT_GT(r.delivered_bytes, 0);
  EXPECT_LT(r.delivered_bytes, r.total_bytes);
  EXPECT_GT(r.faults.packets_lost, 0);
}

TEST(Faults, WatchdogStaysQuietOnARunThatFinishes) {
  const Topology topo = build_mlfm(4);
  SimConfig cfg = base_config();
  cfg.fault.watchdog_interval = us(1);  // aggressive; must still never fire
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const ExchangePlan plan = make_all_to_all_plan(topo.num_nodes(), 4096);
  const ExchangeResult r = stack.run_exchange(plan, us(2000));
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.faults.wedged);
}

// ------------------------------------------------- table & burst helpers

TEST(Faults, UpdateLinkMatchesFullRebuild) {
  // The incremental invalidation must be indistinguishable from a scratch
  // rebuild for every pair — distances and next-hop sets — through a cut
  // and the subsequent revival.
  const Topology topo = build_slim_fly(5);
  const int u = topo.links()[2].r1;
  const int v = topo.links()[2].r2;
  const auto alive = [&](int a, int b) {
    return !((a == u && b == v) || (a == v && b == u));
  };

  MinimalTable incremental(topo);
  incremental.update_link(topo, alive, u, v);  // cut
  MinimalTable scratch(topo);
  scratch.rebuild(topo, alive);

  const int n = topo.num_routers();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      ASSERT_EQ(incremental.distance(a, b), scratch.distance(a, b))
          << "distance mismatch after cut at (" << a << ", " << b << ")";
      const auto ih = incremental.next_hops(a, b);
      const auto sh = scratch.next_hops(a, b);
      ASSERT_TRUE(std::equal(ih.begin(), ih.end(), sh.begin(), sh.end()))
          << "next-hop mismatch after cut at (" << a << ", " << b << ")";
    }
  }
  EXPECT_EQ(incremental.unreachable_pairs(), scratch.unreachable_pairs());

  incremental.update_link(topo, nullptr, u, v);  // revival
  MinimalTable healthy(topo);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      ASSERT_EQ(incremental.distance(a, b), healthy.distance(a, b))
          << "distance mismatch after revival at (" << a << ", " << b << ")";
      const auto ih = incremental.next_hops(a, b);
      const auto hh = healthy.next_hops(a, b);
      ASSERT_TRUE(std::equal(ih.begin(), ih.end(), hh.begin(), hh.end()))
          << "next-hop mismatch after revival at (" << a << ", " << b << ")";
    }
  }
  EXPECT_EQ(incremental.unreachable_pairs(), 0);
}

// ------------------------------------------- detection & propagation

TEST(Faults, PropagationDetectsFloodsAndConverges) {
  // One cut with the modeled control plane: exactly one update, detected by
  // both endpoints after the timeout, flooded to every live router, and
  // declared converged once all of them know.
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  cfg.fault.propagation = true;
  cfg.fault.detection_delay = ns(500);
  cfg.fault.recovery = FaultRecovery::kRetry;
  SimStack stack(topo, RoutingStrategy::kUgalThreshold, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.7, us(12), us(3));
  const ConvergenceStats& cv = r.faults.convergence;
  EXPECT_EQ(cv.updates, 1);
  EXPECT_EQ(cv.detections, 2);  // both endpoints time out
  EXPECT_EQ(cv.converged, 1);
  EXPECT_EQ(cv.routers_reached, topo.num_routers());
  // Detection can't be faster than the modeled timeout, and full
  // consistency can't be faster than detection.
  EXPECT_GE(cv.detection_latency_max, ns(500));
  EXPECT_GE(cv.consistency_time_max, cv.detection_latency_max);
  EXPECT_GE(cv.epoch_lag_max, cv.detection_latency_max);
  EXPECT_GT(cv.flood_messages, 0);
  EXPECT_FALSE(r.faults.wedged);
  EXPECT_GT(r.accepted_throughput, 0.4);
}

TEST(Faults, PropagationDisabledLeavesConvergenceStatsZero) {
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  SimStack stack(topo, RoutingStrategy::kUgalThreshold, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.7, us(12), us(3));
  const ConvergenceStats& cv = r.faults.convergence;
  EXPECT_EQ(cv.updates, 0);
  EXPECT_EQ(cv.detections, 0);
  EXPECT_EQ(cv.flood_messages, 0);
  EXPECT_EQ(cv.misroutes, 0);
}

TEST(Faults, PropagationSurvivesRouterOutageAndRevival) {
  // Router dies and comes back with the control plane on. Neighbors keep
  // feeding it until their timeouts fire (those packets die physically),
  // then believe it dead; the revival floods a second update and the run
  // must end un-wedged with traffic flowing again.
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule.push_back({us(3), FaultKind::kRouterDown, 0, -1});
  cfg.fault.schedule.push_back({us(7), FaultKind::kRouterUp, 0, -1});
  cfg.fault.propagation = true;
  cfg.fault.detection_delay = ns(500);
  cfg.fault.recovery = FaultRecovery::kRetry;
  cfg.fault.recovery_sample = us(1);
  SimStack stack(topo, RoutingStrategy::kUgalThreshold, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.6, us(14), us(2));
  const ConvergenceStats& cv = r.faults.convergence;
  EXPECT_EQ(cv.updates, 2);
  EXPECT_EQ(cv.converged, 2);
  EXPECT_FALSE(r.faults.wedged);
  // Delivery resumes after the revival converges.
  const auto& buckets = r.faults.delivered_bytes_buckets;
  ASSERT_GE(buckets.size(), 12u);
  for (std::size_t i = 10; i < buckets.size() - 1; ++i) {
    EXPECT_GT(buckets[i], 0) << "no delivery in bucket " << i;
  }
}

TEST(Faults, MisrouteBudgetBoundsLocalViewDetours) {
  // A burst of simultaneous cuts maximizes transient inconsistency; every
  // local-view detour must respect the per-packet budget, and with a budget
  // of zero no detour may happen at all.
  const Topology topo = build_slim_fly(5);
  const UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = base_config();
  cfg.fault.schedule = make_link_burst(topo, us(4), 6, 42, us(0));
  cfg.fault.propagation = true;
  cfg.fault.detection_delay = us(1);
  cfg.fault.recovery = FaultRecovery::kRetry;
  SimStack stack(topo, RoutingStrategy::kUgalThreshold, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.7, us(14), us(3));
  EXPECT_FALSE(r.faults.wedged);

  SimConfig no_budget = cfg;
  no_budget.fault.misroute_limit = 0;
  SimStack stack0(topo, RoutingStrategy::kUgalThreshold, no_budget);
  const OpenLoopResult r0 = stack0.run_open_loop(uni, 0.7, us(14), us(3));
  EXPECT_EQ(r0.faults.convergence.misroutes, 0);
  EXPECT_FALSE(r0.faults.wedged);
}

TEST(Faults, LinkBurstIsDeterministicDistinctAndPaired) {
  const Topology topo = build_slim_fly(5);
  const auto a = make_link_burst(topo, us(5), 8, 42, us(3));
  const auto b = make_link_burst(topo, us(5), 8, 42, us(3));
  ASSERT_EQ(a.size(), 16u);  // 8 downs + 8 ups
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
  }
  std::set<std::pair<int, int>> down;
  std::set<std::pair<int, int>> up;
  for (const FaultEvent& e : a) {
    const auto key = std::minmax(e.a, e.b);
    if (e.kind == FaultKind::kLinkDown) {
      EXPECT_EQ(e.time, us(5));
      down.insert(key);
    } else {
      ASSERT_EQ(e.kind, FaultKind::kLinkUp);
      EXPECT_EQ(e.time, us(8));
      up.insert(key);
    }
  }
  EXPECT_EQ(down.size(), 8u);  // distinct links
  EXPECT_EQ(down, up);         // every down has its matching up
  // A different seed picks a different burst.
  const auto c = make_link_burst(topo, us(5), 8, 43, us(3));
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size() && !any_diff; ++i) {
    any_diff = c[i].a != a[i].a || c[i].b != a[i].b;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace d2net
