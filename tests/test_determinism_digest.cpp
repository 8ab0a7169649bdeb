// Golden event-digest determinism: every scenario below pins the absolute
// event digest and event count of the serial packet engine, recorded from
// a known-good build, and sweep parallelism must not perturb any point's
// stream.
//
// The digest (OpenLoopResult::event_digest, FNV-1a over every dispatched
// event's time, ordering key, and non-pool-slot operands, collected when
// SimConfig::collect_event_digest is set) is order-sensitive: a single
// swapped tie, dropped event, or field change flips it. A matching pinned
// digest therefore certifies a bit-identical simulation, not merely equal
// summary statistics. A refactor of the engine that is meant to change
// nothing must leave every constant here untouched; a deliberate model
// change re-records them and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/experiment.h"
#include "sim/fault.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/mlfm.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

SimConfig digest_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.collect_event_digest = true;
  return cfg;
}

OpenLoopResult run_open(const Topology& topo, RoutingStrategy strategy, double load) {
  SimStack stack(topo, strategy, digest_config(7));
  UniformTraffic uni(topo.num_nodes());
  return stack.run_open_loop(uni, load, us(6), us(1));
}

void expect_identical(const OpenLoopResult& a, const OpenLoopResult& b) {
  ASSERT_GT(a.events_processed, 0);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
}

TEST(DeterminismDigest, SlimFlyOpenLoopMatchesPinnedDigest) {
  const Topology topo = build_slim_fly(5);
  const OpenLoopResult min = run_open(topo, RoutingStrategy::kMinimal, 0.6);
  EXPECT_EQ(min.event_digest, 0xac0425e31ab4d70eull);
  EXPECT_EQ(min.events_processed, 360423);
  const OpenLoopResult ugal = run_open(topo, RoutingStrategy::kUgal, 0.6);
  EXPECT_EQ(ugal.event_digest, 0xf9aebac90798b0f1ull);
  EXPECT_EQ(ugal.events_processed, 415095);
}

TEST(DeterminismDigest, MlfmOpenLoopMatchesPinnedDigest) {
  const Topology topo = build_mlfm(4);
  const OpenLoopResult res = run_open(topo, RoutingStrategy::kValiant, 0.5);
  EXPECT_EQ(res.event_digest, 0x53d943ce52b0a1eaull);
  EXPECT_EQ(res.events_processed, 229184);
}

TEST(DeterminismDigest, ExchangeMatchesPinnedDigest) {
  // The closed-loop path: NIC-driven injection, sequential message order
  // and completion detection.
  const Topology topo = build_slim_fly(5);
  SimStack stack(topo, RoutingStrategy::kUgal, digest_config(7));
  const ExchangeResult res =
      stack.run_exchange(make_all_to_all_plan(topo.num_nodes(), 512), us(200));
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.event_digest, 0xd0ed7d22faa66969ull);
  EXPECT_EQ(res.completion_us, 0x1.cecd4aa10e022p+2);  // 7.23128 us
}

TEST(DeterminismDigest, DigestOffByDefaultAndSeedSensitive) {
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  SimConfig plain;
  plain.seed = 7;
  SimStack stack(topo, RoutingStrategy::kMinimal, plain);
  EXPECT_EQ(stack.run_open_loop(uni, 0.4, us(4), us(1)).event_digest, 0u);

  const OpenLoopResult a = run_open(topo, RoutingStrategy::kMinimal, 0.6);
  SimStack other(topo, RoutingStrategy::kMinimal, digest_config(8));
  const OpenLoopResult b = other.run_open_loop(uni, 0.6, us(6), us(1));
  EXPECT_NE(a.event_digest, 0u);
  EXPECT_NE(a.event_digest, b.event_digest);
}

/// A salvaging UGAL run on `topo` that cuts link 0 at 2 us (and link 7 at
/// 3 us with `second_cut`) and revives link 0 at 4 us.
SimConfig fault_schedule_config(const Topology& topo, bool second_cut) {
  SimConfig cfg = digest_config(11);
  cfg.fault.reroute = true;
  cfg.fault.recovery = FaultRecovery::kSalvage;
  cfg.fault.schedule.push_back(
      {us(2), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  if (second_cut) {
    cfg.fault.schedule.push_back(
        {us(3), FaultKind::kLinkDown, topo.links()[7].r1, topo.links()[7].r2});
  }
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkUp, topo.links()[0].r1, topo.links()[0].r2});
  return cfg;
}

TEST(DeterminismDigest, FaultScheduleMatchesPinnedDigest) {
  // Fault application drains VOQs wholesale, resyncs credits and reroutes
  // salvaged packets — the busiest burst of same-timestamp events the
  // engine produces, and exactly where a tie-break change would surface.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  auto run_with = [&](bool second_cut) {
    SimStack stack(topo, RoutingStrategy::kUgal, fault_schedule_config(topo, second_cut));
    return stack.run_open_loop(uni, 0.5, us(6), us(1));
  };
  const OpenLoopResult one = run_with(false);
  EXPECT_EQ(one.faults.faults_applied, 2);
  EXPECT_EQ(one.event_digest, 0xa739c9adf246aaf7ull);
  EXPECT_EQ(one.events_processed, 348404);

  const OpenLoopResult two = run_with(true);
  EXPECT_EQ(two.faults.faults_applied, 3);
  EXPECT_EQ(two.event_digest, 0x3fa0b3b549b03115ull);
  EXPECT_EQ(two.events_processed, 350218);
  EXPECT_EQ(two.faults.packets_dropped, 6);
  EXPECT_EQ(two.faults.packets_retried, 5);
  EXPECT_EQ(two.faults.packets_lost, 0);
  EXPECT_EQ(two.faults.reroutes, 43);
}

TEST(DeterminismDigest, StaleCarriedCellsFallBackToTheListSearch) {
  // kHeadEligible carries its VOQ cell. A fault drain releases cells while
  // their events are pending, and the pool may hand them to other FIFOs;
  // the handler must notice and search the input VC's list instead. The
  // run still folds FaultScheduleMatchesPinnedDigest's two-cut stream.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  SimStack faulted(topo, RoutingStrategy::kUgal, fault_schedule_config(topo, true));
  const OpenLoopResult res = faulted.run_open_loop(uni, 0.5, us(6), us(1));
  EXPECT_EQ(res.event_digest, 0x3fa0b3b549b03115ull);
  EXPECT_EQ(res.events_processed, 350218);
  EXPECT_GT(faulted.sim().stale_carried_cells(), 0);

  // Without faults no cell is released under a pending event.
  SimStack healthy(topo, RoutingStrategy::kUgal, digest_config(11));
  healthy.run_open_loop(uni, 0.5, us(6), us(1));
  EXPECT_EQ(healthy.sim().stale_carried_cells(), 0);
}

TEST(DeterminismDigest, PropagationBurstMatchesPinnedDigest) {
  // The modeled control plane under a fault burst: detection timeouts and
  // hop-by-hop floods interleave with data-plane events in (time, okey)
  // order while routing tables are transiently inconsistent.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = digest_config(11);
  cfg.fault.schedule = make_link_burst(topo, us(2), 4, 42, us(2));
  cfg.fault.propagation = true;
  cfg.fault.detection_delay = ns(600);
  cfg.fault.recovery = FaultRecovery::kRetry;
  SimStack stack(topo, RoutingStrategy::kUgal, cfg);
  const OpenLoopResult res = stack.run_open_loop(uni, 0.5, us(7), us(1));
  EXPECT_EQ(res.event_digest, 0x2d8d4d62539ab7f8ull);
  EXPECT_EQ(res.events_processed, 416432);
  const ConvergenceStats& cv = res.faults.convergence;
  EXPECT_EQ(cv.updates, 8);
  EXPECT_EQ(cv.detections, 16);
  EXPECT_EQ(cv.converged, 8);
  EXPECT_EQ(cv.flood_messages, 2768);
  EXPECT_EQ(cv.routers_reached, 400);
  EXPECT_EQ(cv.misroutes, 0);
  EXPECT_EQ(cv.budget_drops, 0);
}

TEST(DeterminismDigest, PropagationOffIsDigestIdenticalToOracleFaults) {
  // The inertness contract of the control plane: with propagation off, a
  // faulted run folds the pinned oracle event stream, and the
  // propagation-only config knobs may not leak into it.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  auto run_with = [&](bool touch_knobs) {
    SimConfig cfg = digest_config(11);
    cfg.fault.schedule = make_link_burst(topo, us(2), 3, 9, us(2));
    cfg.fault.propagation = false;
    if (touch_knobs) {
      // Dormant knobs must be dead weight while propagation is off.
      cfg.fault.detection_delay = us(2);
      cfg.fault.flood_process = us(1);
      cfg.fault.misroute_limit = 1;
    }
    SimStack stack(topo, RoutingStrategy::kUgal, cfg);
    return stack.run_open_loop(uni, 0.5, us(7), us(1));
  };
  const OpenLoopResult base = run_with(false);
  EXPECT_GT(base.faults.faults_applied, 0);
  EXPECT_EQ(base.faults.convergence.updates, 0);
  EXPECT_EQ(base.event_digest, 0x9074cae77fb82262ull);
  EXPECT_EQ(base.events_processed, 410111);
  expect_identical(base, run_with(true));
}

TEST(DeterminismDigest, ArmedUnhitDeadlineMatchesPinnedDigest) {
  // An armed wall-clock deadline that never fires must leave the event
  // sequence untouched: the run folds the same stream as the unarmed
  // SlimFlyOpenLoopMatchesPinnedDigest MIN point.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = digest_config(7);
  cfg.wall_limit_seconds = 3600.0;  // armed, never hit
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult res = stack.run_open_loop(uni, 0.6, us(6), us(1));
  EXPECT_FALSE(res.timed_out);
  EXPECT_EQ(res.event_digest, 0xac0425e31ab4d70eull);
  EXPECT_EQ(res.events_processed, 360423);
}

TEST(DeterminismDigest, SweepDigestsStableAcrossJobs) {
  // Per-point digests are a pure function of (base seed, point index); the
  // thread count and scheduling interleave must not reach any event stream.
  const Topology sf = build_slim_fly(5);
  const Topology ml = build_mlfm(4);
  UniformTraffic uni_sf(sf.num_nodes());
  UniformTraffic uni_ml(ml.num_nodes());

  SweepSeriesSpec a;
  a.label = "sf-min";
  a.topo = &sf;
  a.strategy = RoutingStrategy::kMinimal;
  a.pattern = &uni_sf;
  a.loads = {0.3, 0.6};
  SweepSeriesSpec b;
  b.label = "ml-ugal";
  b.topo = &ml;
  b.strategy = RoutingStrategy::kUgal;
  b.pattern = &uni_ml;
  b.loads = {0.5};

  auto digests_with_jobs = [&](int jobs) {
    SweepRunOptions opts;
    opts.jobs = jobs;
    opts.config = digest_config(21);
    opts.duration = us(5);
    opts.warmup = us(1);
    SweepRunner runner(opts);
    const auto out = runner.run({a, b});
    std::vector<std::uint64_t> digests;
    for (const auto& series : out) {
      for (const SweepPoint& pt : series) digests.push_back(pt.result.event_digest);
    }
    return digests;
  };

  const std::vector<std::uint64_t> pinned = {0xe21cdf02d698b80full, 0xd2bd4148cefda1c6ull,
                                             0x794598f6116ac175ull};
  EXPECT_EQ(digests_with_jobs(1), pinned);
  EXPECT_EQ(digests_with_jobs(3), pinned);
}

}  // namespace
}  // namespace d2net
