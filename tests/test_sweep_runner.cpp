// Parallel sweep infrastructure tests: the thread pool, the event queue
// (against a reference order, on every tier of the wheel and its overflow
// heap), per-point seed derivation,
// and — the core guarantee — that a serial (jobs=1) and a parallel (jobs=4)
// sweep over the small paper configurations produce identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/event_queue.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int ran = 0;
  pool.parallel_for(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  std::atomic<int> one{0};
  pool.parallel_for(1, [&](std::size_t) { one.fetch_add(1); });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, HardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_concurrency(), 1);
}

TEST(ThreadPool, TaskExceptionSurfacesOnWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("task 7 exploded"); });
  // Later tasks still run: one bad task must not tear down its worker.
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(
      {
        try {
          pool.wait_idle();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task 7 exploded");
          throw;
        }
      },
      std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
  // The error is cleared on rethrow; the pool remains usable.
  pool.submit([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPool, OnlyFirstOfManyExceptionsIsKept) {
  ThreadPool pool(1);  // single worker => deterministic task order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("body 13 failed");
      ran.fetch_add(1);
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "body 13 failed");
  }
  // All other indices still executed despite the failure.
  EXPECT_EQ(ran.load(), 63);
}

// ------------------------------------------------------------ event queue

// Drives an EventQueue and a reference with the same operations and checks
// every pop against it. The reference keeps the payloads a..d still pending
// under each (time, okey): a pop's (time, okey) must be the reference's
// minimum key, and its payload one of that key's pending payloads. Every
// push carries random operands, so a queue that builds, moves or copies an
// event wrongly fails even when its order is right. Equal keys may pop in
// any order here, as the simulator gives them only to byte-identical events.
class QueueOracle {
 public:
  EventQueue& queue() { return q_; }
  std::size_t size() const { return size_; }
  std::size_t high_water() const { return high_water_; }
  int failures() const { return failures_; }

  void push(TimePs t, std::uint64_t okey) {
    const auto operand = [this] { return static_cast<std::int32_t>(payload_()); };
    const Payload p{operand(), operand(), operand(), operand()};
    q_.push_keyed(t, okey, p[0], p[1], p[2], p[3]);
    ref_[{t, okey}].push_back(p);
    high_water_ = std::max(high_water_, ++size_);
  }

  /// Pops from both and returns the dispatched time.
  TimePs pop() {
    const Event e = q_.pop();
    const Payload got{e.a, e.b, e.c, e.d};
    const auto least = ref_.begin();
    std::vector<Payload>& pending = least->second;
    const bool key_ok = least->first == Key{e.time, e.okey};
    auto it = key_ok ? std::find(pending.begin(), pending.end(), got) : pending.end();
    if (it == pending.end()) {
      if (failures_++ == 0) {
        ADD_FAILURE() << "first mismatch: got (" << e.time << ", " << e.okey << " | " << got[0]
                      << ", " << got[1] << ", " << got[2] << ", " << got[3] << "), want key ("
                      << least->first.first << ", " << least->first.second << ") with "
                      << pending.size() << " payload(s) pending";
      }
      it = pending.begin();
    }
    pending.erase(it);
    if (pending.empty()) ref_.erase(least);
    --size_;
    return e.time;
  }

  void drain() {
    while (size_ > 0) pop();
    EXPECT_TRUE(q_.empty());
  }

  void clear() {
    q_.clear();
    ref_.clear();
    size_ = 0;
  }

 private:
  using Key = std::pair<TimePs, std::uint64_t>;
  using Payload = std::array<std::int32_t, 4>;

  EventQueue q_;
  std::map<Key, std::vector<Payload>> ref_;
  Rng payload_{0x5EED};
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
  int failures_ = 0;
};

/// The wheel's chunk pool never holds more than the pending high-water mark
/// plus one partial chunk per bucket and one chunk in transit.
void expect_wheel_pool_bounded(QueueOracle& o) {
  const std::size_t bound =
      o.high_water() + EventQueue::kChunkEvents *
                           (EventQueue::kL1Buckets + EventQueue::kL2Buckets + 1);
  EXPECT_LE(o.queue().pool_slots(), bound) << "high water " << o.high_water();
}

TEST(EventQueue4ary, MatchesReferenceHeapOnRandomStress) {
  QueueOracle o;
  o.queue().reserve(1 << 12);
  Rng rng(99);
  // Interleave pushes and pops the way the simulator does (queue stays
  // partially full), with a few okeys over a narrow time range so ties on
  // time and on (time, okey) are common.
  for (int round = 0; round < 2000; ++round) {
    const int pushes = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < pushes; ++i) {
      o.push(static_cast<TimePs>(rng.next_below(1 << 16)), rng.next_below(4));
    }
    const int pops = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(pushes) + 1));
    for (int i = 0; i < pops && o.size() > 0; ++i) o.pop();
  }
  o.drain();
  EXPECT_EQ(o.failures(), 0);
  expect_wheel_pool_bounded(o);
}

TEST(EventQueueOracle, OkeyTiesAndPushesIntoTheActiveBucket) {
  QueueOracle o;
  Rng rng(5);
  for (int i = 0; i < 2048; ++i) {
    o.push(static_cast<TimePs>(rng.next_below(1 << 12)), rng.next_below(4));
  }
  for (int step = 0; step < 50'000; ++step) {
    const TimePs now = o.pop();
    // Same-time pushes whose okey sorts before or after the event just
    // dispatched, pushes a few ps ahead (same 64 ps bucket), and pushes on
    // the simulator's own scale.
    switch (rng.next_below(4)) {
      case 0:
        o.push(now, rng.next_below(4));
        break;
      case 1:
        o.push(now + static_cast<TimePs>(rng.next_below(64)), rng.next_below(4));
        break;
      default:
        o.push(now + 1 + static_cast<TimePs>(rng.next_below(1 << 17)), rng.next_below(4));
        break;
    }
  }
  o.drain();
  EXPECT_EQ(o.failures(), 0);
  expect_wheel_pool_bounded(o);
}

TEST(EventQueueOracle, PaperDensityWithHeapOverflow) {
  // About as many resident events as a saturated SF q=13 run keeps pending
  // (~100k), rescheduled on the simulator's time scale; one push in 32
  // lands past the ~16.8 us L2 horizon and must come back through the heap.
  constexpr int kResident = 1 << 16;
  QueueOracle o;
  o.queue().reserve(kResident);
  Rng rng(17);
  for (int i = 0; i < kResident; ++i) {
    o.push(static_cast<TimePs>(rng.next_below(1 << 17)), rng.next_below(1 << 20));
  }
  for (int step = 0; step < 200'000; ++step) {
    const TimePs now = o.pop();
    const TimePs ahead = rng.next_below(32) == 0
                             ? (TimePs{1} << 24) + static_cast<TimePs>(rng.next_below(1 << 24))
                             : 1 + static_cast<TimePs>(rng.next_below(1 << 17));
    o.push(now + ahead, rng.next_below(1 << 20));
  }
  EXPECT_GE(o.high_water(), static_cast<std::size_t>(kResident));
  expect_wheel_pool_bounded(o);
  o.drain();
  EXPECT_EQ(o.failures(), 0);
}

TEST(EventQueueOracle, SlidingHorizonPullsHeapEvents) {
  // Sparse traffic rescheduled up to ~1 us ahead advances time across many
  // ~16.8 us L2 spans, while one push in 16 lands up to three spans ahead.
  // Those heap events must re-enter through the sliding L2 window ahead of
  // the later near-future events that keep arriving around them.
  QueueOracle o;
  Rng rng(31);
  for (int i = 0; i < 512; ++i) {
    o.push(static_cast<TimePs>(rng.next_below(1 << 20)), rng.next_below(4));
  }
  TimePs now = 0;
  for (int step = 0; step < 100'000; ++step) {
    now = o.pop();
    const TimePs ahead = rng.next_below(16) == 0
                             ? static_cast<TimePs>(rng.next_below(TimePs{3} << 24))
                             : 1 + static_cast<TimePs>(rng.next_below(1 << 20));
    o.push(now + ahead, rng.next_below(4));
  }
  EXPECT_GT(now, TimePs{4} << 24);  // crossed several L2 spans
  o.drain();
  EXPECT_EQ(o.failures(), 0);
  expect_wheel_pool_bounded(o);
}

TEST(EventQueueOracle, PushesOnEveryTierAndBoundary) {
  // Every push is aimed relative to the event just popped, whose L1 window
  // ends at the next W2 boundary (the L2 window starts there) and whose L2
  // window ends kL2Span later. Pushes land in the active bucket, L1, exactly
  // on the L1/L2 boundary, L2, exactly on the L2 horizon and in the heap.
  constexpr TimePs kW1 = EventQueue::kW1;
  constexpr TimePs kW2 = EventQueue::kW2;
  constexpr TimePs kL2Span = EventQueue::kL2Span;
  QueueOracle o;
  Rng rng(41);
  for (int i = 0; i < 1024; ++i) {
    o.push(static_cast<TimePs>(rng.next_below(4 * kW2)), rng.next_below(4));
  }
  for (int step = 0; step < 60'000; ++step) {
    const TimePs now = o.pop();
    const TimePs l1_limit = (now / kW2 + 1) * kW2;
    const TimePs horizon = l1_limit + kL2Span;
    TimePs t = now;  // case 0: the active bucket, at the dispatch time
    switch (rng.next_below(9)) {
      case 1:  // the active bucket or the L1 bucket just after it
        t = now + static_cast<TimePs>(rng.next_below(2 * kW1));
        break;
      case 2:  // anywhere in L1
        t = now + static_cast<TimePs>(
                      rng.next_below(static_cast<std::uint64_t>(l1_limit - now)));
        break;
      case 3:  // the last L1 time
        t = l1_limit - 1;
        break;
      case 4:  // exactly on the L1/L2 boundary: the first L2 time
        t = l1_limit;
        break;
      case 5:  // anywhere in L2
        t = l1_limit + static_cast<TimePs>(rng.next_below(kL2Span));
        break;
      case 6:  // the last L2 time
        t = horizon - 1;
        break;
      case 7:  // exactly on the L2 horizon: the first heap time
        t = horizon;
        break;
      case 8:  // deeper in the heap
        t = horizon + static_cast<TimePs>(rng.next_below(2 * kL2Span));
        break;
      default:
        break;
    }
    o.push(t, rng.next_below(4));
  }
  o.drain();
  EXPECT_EQ(o.failures(), 0);
  expect_wheel_pool_bounded(o);
}

TEST(EventQueueOracle, ClearThenReuse) {
  QueueOracle o;
  std::size_t first_pool = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    // Every cycle replays the same schedule from time 0, far behind where
    // the previous cycle stopped, and abandons it part-way through.
    Rng rng(23);
    for (int i = 0; i < 10'000; ++i) {
      o.push(static_cast<TimePs>(rng.next_below(1 << 20)), rng.next_below(8));
    }
    for (int step = 0; step < 30'000; ++step) {
      const TimePs now = o.pop();
      o.push(now + 1 + static_cast<TimePs>(rng.next_below(1 << 19)), rng.next_below(8));
    }
    EXPECT_EQ(o.failures(), 0);
    o.clear();
    EXPECT_TRUE(o.queue().empty());
    // clear() keeps the chunk pool: replaying the schedule carves no more.
    if (cycle == 0) first_pool = o.queue().pool_slots();
    EXPECT_EQ(o.queue().pool_slots(), first_pool);
  }
  o.push(7, 0);
  o.drain();
  EXPECT_EQ(o.failures(), 0);
  expect_wheel_pool_bounded(o);
}

TEST(EventQueue4ary, NextTimeAndPopThrowOnEmpty) {
  // Empty-queue misuse is guarded by D2NET_HOT_ASSERT: fatal only in
  // Debug/sanitizer builds (undefined in Release, where the engine's
  // queue_.empty() checks make the calls unreachable).
#if defined(D2NET_DEBUG_ASSERTS) || !defined(NDEBUG)
  EventQueue q;
  EXPECT_THROW(q.next_time(), InternalError);
  EXPECT_THROW(q.pop(), InternalError);
  q.push(5, EventType::kNicFree, 0);
  EXPECT_EQ(q.next_time(), 5);
#else
  EventQueue q;
  q.push(5, EventType::kNicFree, 0);
  EXPECT_EQ(q.next_time(), 5);
#endif
}

TEST(EventQueue4ary, ClearKeepsPushOrderAmongEqualKeys) {
  EventQueue q;
  q.push(10, EventType::kNicFree, 1);
  q.clear();
  EXPECT_TRUE(q.empty());
  // After clear(), the wheel still pops equal (time, okey) in push order.
  const std::uint64_t okey = pack_event_okey(EventType::kNicFree, 0, 0, 0, 0);
  q.push_keyed(7, okey, 2);
  q.push_keyed(7, okey, 3);
  EXPECT_EQ(q.pop().a, 2);
  EXPECT_EQ(q.pop().a, 3);
}

TEST(EventQueue4ary, EveryTypeRoundTripsThroughBothOkeyPacks) {
  // The okey's high byte is the only copy of an event's type: maximal
  // in-range operands and the largest packet uid must not reach it.
  constexpr std::int32_t kMaxA = (1 << 22) - 1;
  constexpr std::int32_t kMaxB = (1 << 12) - 1;
  constexpr std::int32_t kMaxC = (1 << 4) - 1;
  constexpr std::int32_t kMaxD = (1 << 18) - 1;
  constexpr std::uint64_t kMaxUid = (std::uint64_t{1} << 56) - 1;
  for (int t = 0; t <= static_cast<int>(EventType::kFloodArrive); ++t) {
    const auto type = static_cast<EventType>(t);
    EventQueue q;
    q.push(1, type, kMaxA, kMaxB, kMaxC, kMaxD);
    q.push_keyed(2, pack_packet_okey(type, kMaxUid), 5);
    const Event operands = q.pop();
    EXPECT_EQ(operands.type(), type) << "pack_event_okey, type " << t;
    EXPECT_EQ(okey_router(operands.okey), kMaxA);
    EXPECT_EQ(operands.okey, pack_event_okey(type, kMaxA, kMaxB, kMaxC, kMaxD));
    const Event packet = q.pop();
    EXPECT_EQ(packet.type(), type) << "pack_packet_okey, type " << t;
    EXPECT_EQ(packet.okey & kMaxUid, kMaxUid);
  }
}

// -------------------------------------------------------- seed derivation

TEST(SeedDerivation, DeterministicAndDecorrelated) {
  // Stable across calls.
  EXPECT_EQ(derive_point_seed(1, 0), derive_point_seed(1, 0));
  // Distinct per point and per base seed.
  EXPECT_NE(derive_point_seed(1, 0), derive_point_seed(1, 1));
  EXPECT_NE(derive_point_seed(1, 0), derive_point_seed(2, 0));
  // Adjacent base seeds do not collide across nearby indices (the classic
  // base+index trap where (seed 1, point 2) == (seed 2, point 1)).
  for (std::uint64_t a = 0; a < 8; ++a) {
    for (std::uint64_t b = 0; b < 8; ++b) {
      if (a == b) continue;
      for (std::uint64_t i = 0; i < 8; ++i) {
        for (std::uint64_t j = 0; j < 8; ++j) {
          EXPECT_NE(derive_point_seed(a, i), derive_point_seed(b, j));
        }
      }
    }
  }
}

// ----------------------------------------------- serial/parallel identity

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
}

TEST(SweepRunner, ParallelMatchesSerialAcrossSystems) {
  // Small SF / MLFM / OFT instances, mixed routing, short runs: enough
  // points to exercise real interleaving under jobs=4.
  const Topology sf = build_slim_fly(5);
  const Topology mlfm = build_mlfm(3);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_mlfm(mlfm.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const std::vector<double> loads{0.2, 0.5, 0.9};

  std::vector<SweepSeriesSpec> specs;
  auto add = [&](const Topology& topo, const TrafficPattern& pat, RoutingStrategy s,
                 const char* label) {
    SweepSeriesSpec spec;
    spec.label = label;
    spec.topo = &topo;
    spec.strategy = s;
    spec.pattern = &pat;
    spec.loads = loads;
    specs.push_back(std::move(spec));
  };
  add(sf, uni_sf, RoutingStrategy::kMinimal, "SF MIN");
  add(sf, uni_sf, RoutingStrategy::kUgal, "SF UGAL");
  add(mlfm, uni_mlfm, RoutingStrategy::kMinimal, "MLFM MIN");
  add(mlfm, uni_mlfm, RoutingStrategy::kValiant, "MLFM INR");
  add(oft, uni_oft, RoutingStrategy::kMinimal, "OFT MIN");
  add(oft, uni_oft, RoutingStrategy::kUgal, "OFT UGAL");

  SweepRunOptions opts;
  opts.duration = us(4);
  opts.warmup = us(1);
  opts.config.seed = 42;

  opts.jobs = 1;
  SweepRunner serial(opts);
  const auto a = serial.run(specs);
  EXPECT_EQ(serial.stats().points, static_cast<std::int64_t>(specs.size() * loads.size()));
  EXPECT_GT(serial.stats().events, 0);

  opts.jobs = 4;
  SweepRunner parallel(opts);
  const auto b = parallel.run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t l = 0; l < a[s].size(); ++l) {
      EXPECT_EQ(a[s][l].offered, b[s][l].offered);
      expect_identical(a[s][l].result, b[s][l].result);
    }
  }
  // The two runs dispatched the same events, so the aggregate matches too.
  EXPECT_EQ(serial.stats().events, parallel.stats().events);
}

TEST(SweepRunner, RerunIsIdenticalAndSeedSensitive) {
  const Topology oft = build_oft(4);
  const UniformTraffic uni(oft.num_nodes());
  SweepSeriesSpec spec;
  spec.label = "OFT MIN";
  spec.topo = &oft;
  spec.strategy = RoutingStrategy::kMinimal;
  spec.pattern = &uni;
  spec.loads = {0.5};

  SweepRunOptions opts;
  opts.duration = us(4);
  opts.warmup = us(1);
  opts.config.seed = 7;
  opts.jobs = 2;
  const auto a = run_load_sweep_parallel(spec, opts);
  const auto b = run_load_sweep_parallel(spec, opts);
  expect_identical(a[0].result, b[0].result);

  opts.config.seed = 8;
  const auto c = run_load_sweep_parallel(spec, opts);
  EXPECT_NE(a[0].result.packets_injected, c[0].result.packets_injected);
}

TEST(SweepRunner, SharedTableMatchesPerStackTable) {
  const Topology sf = build_slim_fly(5);
  const auto table = std::make_shared<const MinimalTable>(sf);
  SimConfig cfg;
  cfg.seed = 11;
  const UniformTraffic uni(sf.num_nodes());

  SimStack own(sf, RoutingStrategy::kMinimal, cfg);
  SimStack shared(sf, table, RoutingStrategy::kMinimal, cfg);
  const auto a = own.run_open_loop(uni, 0.5, us(4), us(1));
  const auto b = shared.run_open_loop(uni, 0.5, us(4), us(1));
  expect_identical(a, b);
}

TEST(SweepRunner, RejectsMismatchedTable) {
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const auto wrong = std::make_shared<const MinimalTable>(oft);
  SimConfig cfg;
  EXPECT_THROW(SimStack(sf, wrong, RoutingStrategy::kMinimal, cfg), ArgumentError);
  EXPECT_THROW(SimStack(sf, nullptr, RoutingStrategy::kMinimal, cfg), ArgumentError);
}

}  // namespace
}  // namespace d2net
