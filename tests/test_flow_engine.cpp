// Flow-level engine (src/flowsim/): water-filling unit behavior, the
// exact-mode local repair against the waterfill_all oracle (randomized
// arrivals/departures, multi-round widening through a faster fixed flow,
// and a forced fallback), engine sanity on tiny topologies, a pinned
// batched run, the work-based wall-clock deadline, batched-vs-exact
// recompute agreement,
// flow-vs-packet cross-validation (saturation knee within one load step,
// exchange completion-time ordering), determinism across --jobs, journal
// resume byte-identity, and strict rejection of packet-only
// configuration. See docs/flow_engine.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "common/journal.h"
#include "common/rng.h"
#include "flowsim/flow_sim.h"
#include "flowsim/waterfill.h"
#include "sim/campaign.h"
#include "sim/exchange.h"
#include "sim/experiment.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

namespace fs = std::filesystem;

using flowsim::FlowSim;
using flowsim::FlowTable;
using flowsim::RateChangeSink;
using flowsim::RepairResult;
using flowsim::WaterfillScratch;

// Records on_rate_change callbacks into the table like FlowSim does.
struct ApplySink final : RateChangeSink {
  FlowTable* table;
  explicit ApplySink(FlowTable* t) : table(t) {}
  void on_rate_change(int flow, double new_rate) override {
    table->rate[static_cast<std::size_t>(flow)] = new_rate;
  }
};

TEST(Waterfill, LoneFlowRunsAtLineRate) {
  FlowTable t;
  t.reset(4);
  const std::int32_t links[] = {0, 1, 3};
  const int f = t.create(links, 3, 1000.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f)], 1.0);
}

TEST(Waterfill, TwoFlowsShareABottleneckEvenly) {
  FlowTable t;
  t.reset(5);
  const std::int32_t a[] = {0, 2};
  const std::int32_t b[] = {1, 2};
  const int fa = t.create(a, 2, 1000.0);
  const int fb = t.create(b, 2, 1000.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(fa)], 0.5);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(fb)], 0.5);
}

TEST(Waterfill, MaxMinUnfreezesSpareCapacity) {
  // Chain f0 -[l0]- f1 -[l1]- f2: link 0 freezes f0 and f1 at 0.5; link 1
  // then has 0.5 left for f2 alone.
  FlowTable t;
  t.reset(2);
  const std::int32_t l0[] = {0};
  const std::int32_t l01[] = {0, 1};
  const std::int32_t l1[] = {1};
  const int f0 = t.create(l0, 1, 1.0);
  const int f1 = t.create(l01, 2, 1.0);
  const int f2 = t.create(l1, 1, 1.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f0)], 0.5);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f1)], 0.5);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f2)], 0.5);
}

TEST(Waterfill, AsymmetricChainIsMaxMinNotEqual) {
  // f0..f2 share link 0 (fair 1/3); f3 shares link 1 with f2 only. After
  // link 0 freezes f2 at 1/3, f3 takes the remaining 2/3 — max-min is not
  // global equality.
  FlowTable t;
  t.reset(2);
  const std::int32_t l0[] = {0};
  const std::int32_t l01[] = {0, 1};
  const std::int32_t l1[] = {1};
  const int f0 = t.create(l0, 1, 1.0);
  const int f1 = t.create(l0, 1, 1.0);
  const int f2 = t.create(l01, 2, 1.0);
  const int f3 = t.create(l1, 1, 1.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f0)], 1.0 / 3, 1e-12);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f1)], 1.0 / 3, 1e-12);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f2)], 1.0 / 3, 1e-12);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f3)], 2.0 / 3, 1e-12);
}

// Every active flow's rate equals a from-scratch waterfill_all of the same
// table within `rel` relative.
void expect_matches_oracle(const FlowTable& t, double rel, const std::string& where) {
  FlowTable oracle = t;
  WaterfillScratch ws;
  ApplySink sink(&oracle);
  flowsim::waterfill_all(oracle, ws, sink);
  for (int f = 0; f < t.capacity(); ++f) {
    const std::size_t fs = static_cast<std::size_t>(f);
    if (!t.in_use[fs]) continue;
    ASSERT_NEAR(t.rate[fs], oracle.rate[fs], rel * oracle.rate[fs])
        << where << ": flow " << f << " of " << t.active;
  }
}

// Creates a flow over 1..max_links distinct random links out of num_links.
int create_random_flow(FlowTable& t, Rng& rng, int num_links, int max_links) {
  std::int32_t links[flowsim::kMaxLinksPerFlow];
  const int n = static_cast<int>(rng.uniform_int(1, max_links));
  for (int i = 0; i < n; ++i) {
    bool dup = true;
    while (dup) {
      links[i] = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(num_links)));
      dup = std::find(links, links + i, links[i]) != links + i;
    }
  }
  return t.create(links, n, 1.0);
}

// Copies `flow`'s links into `out` (before it is destroyed); returns the count.
int links_of(const FlowTable& t, int flow, std::int32_t* out) {
  const int n = t.nlinks[static_cast<std::size_t>(flow)];
  for (int i = 0; i < n; ++i) {
    out[i] = t.slot_link[static_cast<std::size_t>(flow * flowsim::kMaxLinksPerFlow + i)];
  }
  return n;
}

TEST(Repair, MatchesWaterfillAllUnderRandomArrivalsAndDepartures) {
  // The oracle test of exact mode: random arrivals, departures and
  // departure-plus-successor replacements on random link sets, each
  // followed by one repair_from seeded like FlowSim seeds it. After every
  // operation every rate must equal a full waterfill_all. Sparse tables
  // keep repairs local; dense ones percolate into network-wide cascades.
  struct Shape {
    int num_links;
    int max_links;
    int target_flows;
    bool sparse;  ///< repairs should stay local
  };
  for (const Shape shape :
       {Shape{400, 4, 60, true}, Shape{60, 5, 120, false}, Shape{12, 6, 40, false}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      FlowTable t;
      t.reset(shape.num_links);
      WaterfillScratch ws;
      ApplySink sink(&t);
      std::vector<int> live;
      std::int64_t repairs = 0;
      std::int64_t rounds = 0;
      std::int64_t fallbacks = 0;
      for (int op = 0; op < 1500; ++op) {
        std::int32_t seeds[2 * flowsim::kMaxLinksPerFlow];
        int nseeds = 0;
        const double u = rng.uniform();
        const bool grow = live.empty() ||
                          static_cast<int>(live.size()) < shape.target_flows * u * 2;
        if (!grow) {
          // Departure, and every other time a successor in the same event.
          const std::size_t i = rng.next_below(live.size());
          nseeds = links_of(t, live[i], seeds);
          t.destroy(live[i]);
          live[i] = live.back();
          live.pop_back();
        }
        if (grow || rng.bernoulli(0.5)) {
          const int f = create_random_flow(t, rng, shape.num_links, shape.max_links);
          nseeds += links_of(t, f, seeds + nseeds);
          live.push_back(f);
        }
        const RepairResult r = flowsim::repair_from(t, seeds, nseeds, ws, sink);
        ++repairs;
        rounds += r.rounds;
        if (r.fell_back) ++fallbacks;
        expect_matches_oracle(t, 1e-12,
                              "links " + std::to_string(shape.num_links) + " seed " +
                                  std::to_string(seed) + " op " + std::to_string(op));
        if (HasFatalFailure()) return;
      }
      // On sparse tables the local path carries the sequence; dense ones
      // fall back often, but not always.
      EXPECT_LT(fallbacks * (shape.sparse ? 4 : 1), repairs)
          << "links " << shape.num_links << " seed " << seed;
      // Dense tables widen: many repairs need more than one fill round.
      if (!shape.sparse) {
        EXPECT_GT(rounds, repairs) << "links " << shape.num_links << " seed " << seed;
      }
    }
  }
}

TEST(Repair, FreeFlowWidensThroughAFasterFixedFlow) {
  // Flow f crosses seed link S and link B; flow k crosses B only; m
  // crowders share S with f. S bottlenecks f at 1/(m+1), so k takes the
  // rest of B. Each crowder departure frees f and the crowders left on S,
  // but k stays fixed at its old rate, and the first fill freezes f on B
  // at what k leaves — slower than k, so B certifies nothing for f. The
  // free violator f must free k, the faster fixed flow on its fill
  // bottleneck, and the second round settles both without a fallback. Arrivals undo
  // the departures: there k, fixed, loses its saturated bottleneck and
  // frees itself. Bystanders on a third link keep the repair far below
  // the cost of a full recompute, so only a failure to widen falls back.
  constexpr int m = 4;
  constexpr int kBystanders = 16;
  constexpr std::int32_t kS = 0;
  constexpr std::int32_t kB = 1;
  FlowTable t;
  t.reset(3);
  WaterfillScratch ws;
  ApplySink sink(&t);
  const std::int32_t f_links[] = {kS, kB};
  const std::int32_t k_links[] = {kB};
  const std::int32_t s_links[] = {kS};
  const std::int32_t bystander_links[] = {2};
  const int f = t.create(f_links, 2, 1.0);
  const int k = t.create(k_links, 1, 1.0);
  std::vector<int> crowders;
  for (int i = 0; i < m; ++i) crowders.push_back(t.create(s_links, 1, 1.0));
  for (int i = 0; i < kBystanders; ++i) t.create(bystander_links, 1, 1.0);
  flowsim::waterfill_all(t, ws, sink);
  ASSERT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f)], 1.0 / (m + 1));

  std::int64_t repairs = 0;
  std::int64_t rounds = 0;
  const auto repair = [&](const std::string& step) {
    const RepairResult r = flowsim::repair_from(t, s_links, 1, ws, sink);
    ++repairs;
    rounds += r.rounds;
    EXPECT_FALSE(r.fell_back) << step;
    expect_matches_oracle(t, 1e-12, step);
    // f gets its share of S, at most half of B; k takes the rest of B.
    const double share = std::min(1.0 / t.link_nflows[kS], 0.5);
    EXPECT_NEAR(t.rate[static_cast<std::size_t>(f)], share, 1e-12) << step;
    EXPECT_NEAR(t.rate[static_cast<std::size_t>(k)], 1.0 - share, 1e-12) << step;
  };
  while (!crowders.empty()) {
    t.destroy(crowders.back());
    crowders.pop_back();
    repair("departure, " + std::to_string(crowders.size()) + " crowders left");
    if (HasFatalFailure()) return;
  }
  for (int i = 0; i < m; ++i) {
    t.create(s_links, 1, 1.0);
    repair("arrival " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(rounds, repairs);
}

TEST(Repair, SaturatedHubForcesTheFallback) {
  // k flows share hub link 0, each with a private second link; m
  // single-link flows crowd flow 0's private link, which makes flow 0 the
  // hub's slowest flow. One more arrival there slows flow 0 further, so
  // every other hub flow speeds up: the change propagates through the
  // saturated hub to the whole table, the repair outgrows the component it
  // would have to recompute, and falls back.
  constexpr int k = 8;
  constexpr int m = 12;
  FlowTable t;
  t.reset(1 + k);
  WaterfillScratch ws;
  ApplySink sink(&t);
  for (int i = 0; i < k; ++i) {
    const std::int32_t links[] = {0, 1 + i};
    t.create(links, 2, 1.0);
  }
  const std::int32_t crowded[] = {1};
  for (int i = 0; i < m; ++i) t.create(crowded, 1, 1.0);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_DOUBLE_EQ(t.rate[0], 1.0 / (m + 1));

  t.create(crowded, 1, 1.0);
  const RepairResult r = flowsim::repair_from(t, crowded, 1, ws, sink);
  EXPECT_TRUE(r.fell_back);
  EXPECT_GE(r.flows_touched, t.active);
  expect_matches_oracle(t, 1e-12, "after the fallback");
  EXPECT_DOUBLE_EQ(t.rate[0], 1.0 / (m + 2));
  EXPECT_NEAR(t.rate[1], (1.0 - 1.0 / (m + 2)) / (k - 1), 1e-15);

  // The fallback leaves valid bottlenecks behind for the next repair: the
  // departure that undoes the arrival restores the first allocation.
  t.destroy(t.capacity() - 1);
  flowsim::repair_from(t, crowded, 1, ws, sink);
  expect_matches_oracle(t, 1e-12, "after the departure");
  EXPECT_NEAR(t.rate[0], 1.0 / (m + 1), 1e-15);
}

// Two routers, one node each, one link: a lone flow must complete in
// bytes x ps_per_byte (rate 1.0), so flow latency is the serialization
// time and accepted throughput tracks offered load closely.
Topology tiny_pair() {
  Topology t("pair", TopologyKind::kCustom);
  t.add_router({}, 1);
  t.add_router({}, 1);
  t.add_link(0, 1);
  t.finalize();
  return t;
}

TEST(FlowSim, LoneFlowLatencyIsSerializationTime) {
  const Topology topo = tiny_pair();
  SimConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.flow.flow_bytes = 4096;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const auto shift = make_node_shift(topo.num_nodes(), 1);
  // Low load: flows essentially never overlap, every flow runs alone at
  // rate 1.0 end to end.
  const OpenLoopResult res = stack.run_open_loop(*shift, 0.05, us(200), us(20));
  ASSERT_GT(res.packets_measured, 0);
  const double ser_ns = 4096 * 80 / 1000.0;  // 327.68 ns at 100 Gb/s
  EXPECT_NEAR(res.avg_latency_ns, ser_ns, ser_ns * 0.25);
  EXPECT_NEAR(res.accepted_throughput, 0.05, 0.015);
}

TEST(FlowSim, SaturatedPairDeliversLineRate) {
  const Topology topo = tiny_pair();
  SimConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.flow.flow_bytes = 4096;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const auto shift = make_node_shift(topo.num_nodes(), 1);
  // Disjoint node pairs at full offered load: the engine must sustain
  // ~line rate (back-to-back flows, no sharing).
  const OpenLoopResult res = stack.run_open_loop(*shift, 1.0, us(200), us(20));
  EXPECT_GT(res.accepted_throughput, 0.9);
}

OpenLoopResult run_point(const Topology& topo, SimEngine eng, double load,
                         TimePs rate_interval = 0) {
  SimConfig cfg;
  cfg.engine = eng;
  cfg.flow.rate_interval = rate_interval;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  return stack.run_open_loop(uni, load, us(8), us(2));
}

TEST(FlowSim, BatchedRunMatchesPinnedDigest) {
  // Batched ticks re-waterfill whole components, so the freeze order of
  // waterfill_from — (fill ratio, link id) — decides every rate bit. The
  // pinned event digest and accepted throughput of one saturated SF q=5
  // run change if that order or the fill arithmetic does.
  const Topology topo = build_slim_fly(5);
  SimConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.flow.rate_interval = ns(200);
  cfg.collect_event_digest = true;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  const OpenLoopResult res = stack.run_open_loop(uni, 0.9, us(8), us(2));
  EXPECT_EQ(res.event_digest, 0xc0c924571945b0a8ull);
  EXPECT_EQ(res.events_processed, 24928);
  EXPECT_EQ(res.accepted_throughput, 0x1.8eb57de77c6bcp-1);  // 0.7787284226489741
}

TEST(FlowSim, BatchedRecomputeMatchesExactThroughput) {
  // The batched tick path assigns optimistic estimates and corrects them
  // at tick/pop time; bytes accrue at the actually-assigned rates, so
  // accepted throughput must land on the exact-recompute value (small
  // slack: estimates shift individual completion times across the window
  // edge).
  const Topology topo = build_slim_fly(5);
  for (const double load : {0.3, 0.6}) {
    const OpenLoopResult exact = run_point(topo, SimEngine::kFlow, load, 0);
    const OpenLoopResult batched = run_point(topo, SimEngine::kFlow, load, ns(200));
    EXPECT_NEAR(batched.accepted_throughput, exact.accepted_throughput, 0.03)
        << "load " << load;
  }
}

// Index of the saturation knee on `loads`: the first offered load whose
// accepted throughput falls more than 15% short, or loads.size() if the
// system tracks offered load everywhere. The 15% band absorbs the flow
// model's conservative saturation (max-min rates under the flow-count
// cap deliver a few percent less than packet multiplexing past the knee;
// see docs/flow_engine.md) without masking a shifted knee.
template <typename RunPoint>
std::size_t knee_index(const std::vector<double>& loads, RunPoint&& run) {
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (run(loads[i]) < 0.85 * loads[i]) return i;
  }
  return loads.size();
}

TEST(FlowVsPacket, SaturationKneeWithinOneLoadStep) {
  // The acceptance cross-validation: on small instances of all three
  // paper families, both engines must place the uniform-traffic MIN
  // saturation knee within one step of each other on a coarse load grid.
  const std::vector<double> loads{0.25, 0.5, 0.75, 1.0};
  const Topology sf = build_slim_fly(5);
  const Topology mlfm = build_mlfm(3);
  const Topology oft = build_oft(4);
  for (const Topology* topo : {&sf, &mlfm, &oft}) {
    const std::size_t kf = knee_index(loads, [&](double l) {
      return run_point(*topo, SimEngine::kFlow, l, ns(200)).accepted_throughput;
    });
    const std::size_t kp = knee_index(loads, [&](double l) {
      return run_point(*topo, SimEngine::kPacket, l).accepted_throughput;
    });
    const std::size_t lo = std::min(kf, kp);
    const std::size_t hi = std::max(kf, kp);
    EXPECT_LE(hi - lo, 1u) << topo->name() << ": flow knee at index " << kf
                           << ", packet knee at index " << kp;
  }
}

TEST(FlowVsPacket, ExchangeCompletionOrderingAgrees) {
  // All-to-all completion times on small SF/MLFM/OFT: the flow engine
  // must rank the three systems the same way the packet engine does
  // (absolute times differ by model — see docs/flow_engine.md).
  const Topology sf = build_slim_fly(5);
  const Topology mlfm = build_mlfm(3);
  const Topology oft = build_oft(4);
  const std::vector<const Topology*> topos{&sf, &mlfm, &oft};
  std::vector<double> flow_us;
  std::vector<double> pkt_us;
  for (const Topology* topo : topos) {
    const ExchangePlan plan = make_all_to_all_plan(topo->num_nodes(), 1024);
    for (const SimEngine eng : {SimEngine::kFlow, SimEngine::kPacket}) {
      SimConfig cfg;
      cfg.engine = eng;
      // Batched ticks: the round-robin plan keeps every message open at
      // once, so exact per-completion recompute would walk the full
      // network-spanning component tens of thousands of times.
      if (eng == SimEngine::kFlow) cfg.flow.rate_interval = ns(200);
      SimStack stack(*topo, RoutingStrategy::kMinimal, cfg);
      const ExchangeResult res = stack.run_exchange(plan, us(40'000));
      ASSERT_TRUE(res.completed) << topo->name();
      (eng == SimEngine::kFlow ? flow_us : pkt_us).push_back(res.completion_us);
    }
  }
  const auto order = [&](const std::vector<double>& v) {
    std::vector<std::size_t> idx{0, 1, 2};
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return v[a] < v[b];
    });
    return idx;
  };
  EXPECT_EQ(order(flow_us), order(pkt_us))
      << "flow: sf=" << flow_us[0] << " mlfm=" << flow_us[1] << " oft=" << flow_us[2]
      << "  pkt: sf=" << pkt_us[0] << " mlfm=" << pkt_us[1] << " oft=" << pkt_us[2];
}

void expect_identical(const OpenLoopResult& a, const OpenLoopResult& b) {
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.p50_latency_ns, b.p50_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.fraction_minimal, b.fraction_minimal);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.event_digest, b.event_digest);
}

std::vector<SweepSeriesSpec> flow_specs(const Topology& sf, const Topology& oft,
                                        const TrafficPattern& uni_sf,
                                        const TrafficPattern& uni_oft) {
  std::vector<SweepSeriesSpec> specs(3);
  specs[0].label = "SF MIN";
  specs[0].topo = &sf;
  specs[0].strategy = RoutingStrategy::kMinimal;
  specs[0].pattern = &uni_sf;
  specs[0].loads = {0.2, 0.5, 0.9};
  specs[1].label = "SF UGAL";
  specs[1].topo = &sf;
  specs[1].strategy = RoutingStrategy::kUgal;
  specs[1].pattern = &uni_sf;
  specs[1].loads = {0.2, 0.5, 0.9};
  specs[2].label = "OFT INR";
  specs[2].topo = &oft;
  specs[2].strategy = RoutingStrategy::kValiant;
  specs[2].pattern = &uni_oft;
  specs[2].loads = {0.2, 0.5, 0.9};
  return specs;
}

SweepRunOptions flow_opts(std::uint64_t seed, TimePs rate_interval = ns(200)) {
  SweepRunOptions opts;
  opts.duration = us(8);
  opts.warmup = us(2);
  opts.config.seed = seed;
  opts.config.engine = SimEngine::kFlow;
  opts.config.flow.rate_interval = rate_interval;
  opts.config.collect_event_digest = true;
  return opts;
}

void expect_same_flow_stats(const FlowEngineStats& a, const FlowEngineStats& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.widen_rounds, b.widen_rounds);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.flows_touched, b.flows_touched);
  EXPECT_EQ(a.rate_changes, b.rate_changes);
  EXPECT_EQ(a.stale_completions, b.stale_completions);
}

TEST(FlowSweep, ParallelJobsMatchSerial) {
  // Flow-engine sweeps under --jobs: every point is an independent
  // simulation, so jobs=4 must reproduce jobs=1 bit-for-bit, event
  // digests included (MIN, UGAL and Valiant cover all route_into paths).
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const auto specs = flow_specs(sf, oft, uni_sf, uni_oft);

  SweepRunOptions opts = flow_opts(7);
  opts.jobs = 1;
  SweepRunner serial(opts);
  const auto a = serial.run(specs);
  opts.jobs = 4;
  SweepRunner parallel(opts);
  const auto b = parallel.run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t l = 0; l < a[s].size(); ++l) {
      EXPECT_EQ(a[s][l].offered, b[s][l].offered);
      expect_identical(a[s][l].result, b[s][l].result);
      EXPECT_NE(a[s][l].result.event_digest, 0u);
    }
  }
}

TEST(FlowSweep, ExactModeIsReproducibleAndIndependentOfJobs) {
  // Exact-mode repairs run in a deterministic order: a repeated serial run
  // and a jobs=4 run reproduce the first bit-for-bit, recompute counters
  // and event digests included, past the knee (0.9) as well as below it.
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const auto specs = flow_specs(sf, oft, uni_sf, uni_oft);

  SweepRunOptions opts = flow_opts(7, 0);
  opts.duration = us(3);
  opts.warmup = us(1);
  opts.jobs = 1;
  const auto a = SweepRunner(opts).run(specs);
  const auto again = SweepRunner(opts).run(specs);
  opts.jobs = 4;
  const auto b = SweepRunner(opts).run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t l = 0; l < a[s].size(); ++l) {
      for (const auto* other : {&again, &b}) {
        const OpenLoopResult& o = (*other)[s][l].result;
        expect_identical(a[s][l].result, o);
        expect_same_flow_stats(a[s][l].result.flow, o.flow);
      }
      const FlowEngineStats& fl = a[s][l].result.flow;
      EXPECT_TRUE(fl.enabled);
      EXPECT_GT(fl.repairs, 0);
      EXPECT_GT(fl.widen_rounds, 0);
      EXPECT_LE(fl.fallbacks, fl.repairs);
      EXPECT_GT(fl.rate_changes, 0);
    }
  }
  // The counters reach --json on flow points only.
  const std::string json = bench::render_point_json(a[0][1]);
  EXPECT_NE(json.find("\"flow\": {\"repairs\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"widen_rounds\": "), std::string::npos) << json;
}

TEST(FlowSim, WallLimitStopsARecomputeHeavyExchangePromptly) {
  // An all-to-all that opens every message at once, with uneven message
  // sizes so completions spread out: each one in exact mode recomputes
  // part or all of a ~40k-flow component. The deadline counts that work,
  // not events, so the run stops near its 10 ms limit instead of after
  // thousands of such events (seconds) as an event-count check would.
  const Topology topo = build_slim_fly(5);
  const int n = topo.num_nodes();
  ExchangePlan plan;
  plan.order = MessageOrder::kRoundRobin;
  plan.per_node.resize(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (d == s) continue;
      const std::int64_t bytes = 4096LL * (1 + (s * 7 + d * 3) % 29);
      plan.per_node[static_cast<std::size_t>(s)].push_back({d, bytes});
    }
  }
  SimConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.wall_limit_seconds = 0.01;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const ExchangeResult res = stack.run_exchange(plan, us(1'000'000));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(res.timed_out);
  EXPECT_FALSE(res.completed);
  EXPECT_LT(res.delivered_bytes, res.total_bytes);
  EXPECT_LT(wall.count(), 1.0);
}

TEST(FlowSweep, KillMidSweepThenResumeIsByteIdentical) {
  // The durability guarantee under --engine flow: a journaled sweep cut
  // off mid-file (torn final line, what SIGKILL leaves) resumes to
  // byte-identical render_point_json output.
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const auto specs = flow_specs(sf, oft, uni_sf, uni_oft);
  const std::string manifest = "bench=test_flow\nengine=flow\nseed=9\n";

  const auto journal_opts = [&](SweepJournal* journal) {
    SweepRunOptions opts = flow_opts(9);
    opts.jobs = 2;
    opts.journal = journal;
    opts.scope = "sweep";
    opts.serialize = [](const SweepPoint& pt) { return bench::render_point_json(pt); };
    return opts;
  };
  const auto temp_dir = [](const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("d2net_" + name);
    fs::remove_all(dir);
    return dir.string();
  };

  const std::string dir_a = temp_dir("flow_resume_a");
  SweepJournal ja(dir_a, manifest, false);
  SweepRunner full(journal_opts(&ja));
  const auto ref = full.run(specs);

  const std::string dir_b = temp_dir("flow_resume_b");
  {
    SweepJournal jb(dir_b, manifest, false);
    SweepRunner first(journal_opts(&jb));
    first.run(specs);
  }
  const fs::path jpath = fs::path(dir_b) / "journal.jsonl";
  std::vector<std::string> lines;
  {
    std::ifstream in(jpath);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 9u);
  {
    std::ofstream out(jpath, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n";
    out << "{\"key\": \"sweep#3\", \"lab";  // torn final line, no newline
  }

  SweepJournal jb(dir_b, manifest, true);
  EXPECT_EQ(jb.loaded_points(), 3u);
  SweepRunner resumed(journal_opts(&jb));
  const auto res = resumed.run(specs);
  EXPECT_EQ(resumed.stats().restored_points, 3);

  ASSERT_EQ(res.size(), ref.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    ASSERT_EQ(res[s].size(), ref[s].size());
    for (std::size_t l = 0; l < ref[s].size(); ++l) {
      EXPECT_EQ(bench::render_point_json(res[s][l]),
                bench::render_point_json(ref[s][l]))
          << "series " << s << " point " << l;
    }
  }
}

TEST(FlowValidation, RejectsPacketOnlyFeaturesUpFront) {
  const Topology topo = build_slim_fly(5);

  SimConfig fault_cfg;
  fault_cfg.engine = SimEngine::kFlow;
  fault_cfg.fault.schedule.push_back(FaultEvent{us(1), FaultKind::kLinkDown, 0, 1});
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, fault_cfg), ArgumentError);

  SimConfig metrics_cfg;
  metrics_cfg.engine = SimEngine::kFlow;
  metrics_cfg.metrics.enabled = true;
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, metrics_cfg), ArgumentError);

  SimConfig shards_cfg;
  shards_cfg.engine = SimEngine::kFlow;
  shards_cfg.shards = 2;
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, shards_cfg), ArgumentError);

  SimConfig bad_knobs;
  bad_knobs.engine = SimEngine::kFlow;
  bad_knobs.flow.flow_bytes = 0;
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, bad_knobs), ArgumentError);
}

std::string parse_error(const std::string& text) {
  try {
    parse_campaign_spec(text, "spec");
  } catch (const ArgumentError& e) {
    return e.what();
  }
  return {};
}

TEST(FlowValidation, CampaignEngineKeyIsStrict) {
  // Unknown engine tokens are located, and engine=flow refuses fault
  // schedules with the offending spec path.
  EXPECT_NE(parse_error(R"({"name": "t", "engine": "quantum",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
                  "series": [{"routing": "min"}]}]})")
                .find("$.engine"),
            std::string::npos);
  const std::string err = parse_error(R"({"name": "t", "engine": "flow",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
                  "fault": {"frac": 0.1},
                  "series": [{"routing": "min"}]}]})");
  EXPECT_NE(err.find("$.sweeps[0].fault"), std::string::npos) << err;
  EXPECT_NE(err.find("flow engine"), std::string::npos) << err;

  // The same spec without the fault block parses and carries the engine.
  const CampaignSpec ok = parse_campaign_spec(R"({"name": "t", "engine": "flow",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
                  "series": [{"routing": "min"}]}]})");
  ASSERT_TRUE(ok.engine.has_value());
  EXPECT_EQ(*ok.engine, SimEngine::kFlow);
}

}  // namespace
}  // namespace d2net
