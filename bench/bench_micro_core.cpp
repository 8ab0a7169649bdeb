// Engine micro-benchmarks (google-benchmark): the hot paths behind the
// figure reproductions — GF arithmetic, topology construction, BFS tables,
// route decisions, the partitioner, raw event-queue throughput, and the
// intrusive VOQ / packet-pool / CSR primitives of the event core.
//
// Two modes:
//   bench_micro_core [gbench args]   the usual google-benchmark CLI
//   bench_micro_core --json=PATH     self-timed perf snapshot: end-to-end
//                                    events/sec at saturation plus ns/op
//                                    for the core primitives and the peak
//                                    live VOQ cells, written as
//                                    flat JSON (the BENCH_core.json
//                                    artifact scripts/ci.sh diffs against;
//                                    see docs/perf.md for refreshing it).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "gf/galois_field.h"
#include "partition/bisection_bandwidth.h"
#include "routing/factory.h"
#include "routing/minimal_table.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "sim/voq.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

void BM_GaloisFieldMul(benchmark::State& state) {
  GaloisField gf(static_cast<int>(state.range(0)));
  Rng rng(1);
  const int q = gf.order();
  for (auto _ : state) {
    const int a = 1 + static_cast<int>(rng.next_below(q - 1));
    const int b = 1 + static_cast<int>(rng.next_below(q - 1));
    benchmark::DoNotOptimize(gf.mul(a, b));
  }
}
BENCHMARK(BM_GaloisFieldMul)->Arg(13)->Arg(25);

void BM_BuildSlimFly(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_slim_fly(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_BuildSlimFly)->Arg(7)->Arg(13);

void BM_BuildOft(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_oft(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_BuildOft)->Arg(6)->Arg(12);

void BM_MinimalTable(benchmark::State& state) {
  const Topology topo = build_slim_fly(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    MinimalTable table(topo);
    benchmark::DoNotOptimize(table.distance(0, 1));
  }
}
BENCHMARK(BM_MinimalTable)->Arg(7)->Arg(13);

void BM_RouteDecisionMinimal(benchmark::State& state) {
  const Topology topo = build_slim_fly(7);
  const MinimalTable table(topo);
  ZeroLoadProvider loads;
  const auto algo = make_routing(topo, table, RoutingStrategy::kMinimal, loads);
  Rng rng(1);
  const int n = topo.num_routers();
  for (auto _ : state) {
    const int a = static_cast<int>(rng.next_below(n));
    int b = static_cast<int>(rng.next_below(n));
    if (b == a) b = (b + 1) % n;
    benchmark::DoNotOptimize(algo->route(a, b, rng));
  }
}
BENCHMARK(BM_RouteDecisionMinimal);

void BM_RouteDecisionUgal(benchmark::State& state) {
  const Topology topo = build_slim_fly(7);
  const MinimalTable table(topo);
  ZeroLoadProvider loads;
  const auto algo = make_routing(topo, table, RoutingStrategy::kUgal, loads);
  Rng rng(1);
  const int n = topo.num_routers();
  for (auto _ : state) {
    const int a = static_cast<int>(rng.next_below(n));
    int b = static_cast<int>(rng.next_below(n));
    if (b == a) b = (b + 1) % n;
    benchmark::DoNotOptimize(algo->route(a, b, rng));
  }
}
BENCHMARK(BM_RouteDecisionUgal);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    Rng rng(1);
    for (int i = 0; i < 4096; ++i) {
      q.push(static_cast<TimePs>(rng.next_below(1 << 20)), EventType::kNicFree, i);
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueue);

void BM_EventQueueStress(benchmark::State& state) {
  // Simulator-shaped stress: the queue stays around `resident` entries while
  // pushes and pops interleave, so scheduling costs reflect steady-state
  // depth rather than a single fill/drain ramp.
  const int resident = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    q.reserve(resident + 8);
    Rng rng(1);
    TimePs now = 0;
    for (int i = 0; i < resident; ++i) {
      q.push(static_cast<TimePs>(rng.next_below(1 << 17)), EventType::kNicFree, i);
    }
    for (int i = 0; i < 1 << 16; ++i) {
      const Event e = q.pop();
      now = e.time;
      // Reschedule ahead on the simulator's own scale (serialization ~20k ps,
      // router latency ~100k ps), as packet events do.
      q.push(now + 1 + static_cast<TimePs>(rng.next_below(1 << 17)),
             EventType::kNicFree, e.a);
      benchmark::DoNotOptimize(now);
    }
  }
}
BENCHMARK(BM_EventQueueStress)
    ->Arg(1 << 8)
    ->Arg(1 << 12)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_VoqPushPop(benchmark::State& state) {
  // The intrusive FIFO primitive behind every (in_port, vc, out_port) VOQ:
  // push 8 pool packets through one cell and drain it, all index stores.
  PacketPool pool;
  int ids[8];
  for (int& id : ids) id = pool.alloc();
  VoqCell cell;
  for (auto _ : state) {
    for (const int id : ids) {
      benchmark::DoNotOptimize(voq_push(pool, cell, id, TimePs{100}));
    }
    while (cell.head >= 0) benchmark::DoNotOptimize(voq_pop(pool, cell));
  }
}
BENCHMARK(BM_VoqPushPop);

void BM_PacketPoolAllocRelease(benchmark::State& state) {
  // Steady-state pool churn: the free list stays warm, so alloc/release is
  // the pure index push/pop the simulator pays per packet.
  PacketPool pool;
  for (auto _ : state) {
    int ids[16];
    for (int& id : ids) id = pool.alloc();
    for (const int id : ids) pool.release(id);
    benchmark::DoNotOptimize(ids[0]);
  }
}
BENCHMARK(BM_PacketPoolAllocRelease);

void BM_CsrNextHops(benchmark::State& state) {
  // The CSR (offsets + values) next-hop lookup every per-hop routing draw
  // reads: two offset loads and a span over the shared table.
  const Topology topo = build_slim_fly(7);
  const MinimalTable table(topo);
  Rng rng(1);
  const int n = topo.num_routers();
  for (auto _ : state) {
    const int a = static_cast<int>(rng.next_below(n));
    int b = static_cast<int>(rng.next_below(n));
    if (b == a) b = (b + 1) % n;
    const auto nh = table.next_hops(a, b);
    benchmark::DoNotOptimize(nh.data());
    benchmark::DoNotOptimize(nh.size());
  }
}
BENCHMARK(BM_CsrNextHops);

void BM_Bisection(benchmark::State& state) {
  const Topology topo = build_mlfm(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(approximate_bisection_bandwidth(topo, 2));
  }
}
BENCHMARK(BM_Bisection);

void BM_SimulateUniformLoad(benchmark::State& state) {
  const Topology topo = build_oft(4);
  SimConfig cfg;
  for (auto _ : state) {
    SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
    UniformTraffic uni(topo.num_nodes());
    benchmark::DoNotOptimize(stack.run_open_loop(uni, 0.5, us(4), us(1)));
  }
}
BENCHMARK(BM_SimulateUniformLoad)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------ --json
// Self-timed perf snapshot (no google-benchmark involvement, so the output
// is a deterministic set of flat keys the CI perf-smoke stage can diff).

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` end-to-end events/sec for one routing strategy on the
/// saturation scenario (SF(7), uniform, load 0.9, 20 us run / 5 us warmup,
/// seed 1 — deep in the saturated regime where the event core dominates).
std::int64_t scenario_events_per_sec(const Topology& topo, RoutingStrategy strategy,
                                     int reps) {
  UniformTraffic uni(topo.num_nodes());
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    SimConfig cfg;
    cfg.seed = 1;
    SimStack stack(topo, strategy, cfg);
    const double t0 = now_seconds();
    const OpenLoopResult res = stack.run_open_loop(uni, 0.9, us(20), us(5));
    const double dt = now_seconds() - t0;
    if (dt > 0.0) {
      best = std::max(best, static_cast<double>(res.events_processed) / dt);
    }
  }
  return static_cast<std::int64_t>(best);
}

/// Best-of-3 ns per operation for a self-contained kernel: `body(iters)`
/// must execute the operation exactly `iters * ops_per_iter` times.
template <typename Body>
double best_ns_per_op(std::int64_t iters, std::int64_t ops_per_iter, Body&& body) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    body(iters);
    const double dt = now_seconds() - t0;
    best = std::min(best, dt * 1e9 / static_cast<double>(iters * ops_per_iter));
  }
  return best;
}

int write_json_snapshot(const std::string& path) {
  const Topology topo = build_slim_fly(7);

  const std::int64_t eps_min =
      scenario_events_per_sec(topo, RoutingStrategy::kMinimal, 3);
  const std::int64_t eps_ugal =
      scenario_events_per_sec(topo, RoutingStrategy::kUgal, 3);

  // Peak live VOQ cells and peak packet-pool bytes (slots x sizeof(Packet))
  // of one UGAL run of the same scenario with metrics on. Deterministic for
  // the seed, so any increase is a storage change, not noise.
  std::size_t voq_cells_peak = 0;
  std::size_t packet_pool_peak_bytes = 0;
  {
    SimConfig cfg;
    cfg.seed = 1;
    cfg.metrics.enabled = true;
    SimStack stack(topo, RoutingStrategy::kUgal, cfg);
    const UniformTraffic uni(topo.num_nodes());
    const OpenLoopResult res = stack.run_open_loop(uni, 0.9, us(20), us(5));
    voq_cells_peak = res.metrics->capacities.voq_cells;
    packet_pool_peak_bytes = res.metrics->capacities.packet_pool_slots * sizeof(Packet);
  }

  // VOQ push+pop pair through one intrusive cell.
  PacketPool pool;
  int ids[8];
  for (int& id : ids) id = pool.alloc();
  VoqCell cell;
  const double ns_voq = best_ns_per_op(2'000'000, 8, [&](std::int64_t iters) {
    for (std::int64_t i = 0; i < iters; ++i) {
      for (const int id : ids) voq_push(pool, cell, id, TimePs{100});
      while (cell.head >= 0) benchmark::DoNotOptimize(voq_pop(pool, cell));
    }
  });

  // Pool alloc+release pair with a warm free list.
  const double ns_pool = best_ns_per_op(2'000'000, 16, [&](std::int64_t iters) {
    for (std::int64_t i = 0; i < iters; ++i) {
      int batch[16];
      for (int& id : batch) id = pool.alloc();
      for (const int id : batch) pool.release(id);
      benchmark::DoNotOptimize(batch[0]);
    }
  });

  // CSR next-hop lookup on the shared minimal table.
  const MinimalTable table(topo);
  const int n = topo.num_routers();
  const double ns_csr = best_ns_per_op(4'000'000, 1, [&](std::int64_t iters) {
    Rng rng(1);
    for (std::int64_t i = 0; i < iters; ++i) {
      const int a = static_cast<int>(rng.next_below(n));
      int b = static_cast<int>(rng.next_below(n));
      if (b == a) b = (b + 1) % n;
      const auto nh = table.next_hops(a, b);
      benchmark::DoNotOptimize(nh.data());
    }
  });

  // Steady-state event-queue push+pop pair with `resident` events pending:
  // 4,096, and 100,000, about what a saturated SF q=13 run keeps pending.
  // Rescheduling up to 2^17 ps ahead then dispatches ~1.5 events per ps,
  // the paper-scale density.
  const auto queue_ns = [&](int resident) {
    return best_ns_per_op(1 << 21, 1, [&](std::int64_t iters) {
      EventQueue q;
      q.reserve(static_cast<std::size_t>(resident));
      Rng rng(1);
      for (int i = 0; i < resident; ++i) {
        q.push(static_cast<TimePs>(rng.next_below(1 << 17)), EventType::kNicFree, i);
      }
      for (std::int64_t i = 0; i < iters; ++i) {
        const Event e = q.pop();
        // Reschedule ahead on the simulator's own scale (serialization
        // ~20k ps, router latency ~100k ps).
        q.push(e.time + 1 + static_cast<TimePs>(rng.next_below(1 << 17)),
               EventType::kNicFree, e.a);
      }
      benchmark::DoNotOptimize(q.empty());
    });
  };
  const double ns_wheel = queue_ns(1 << 12);
  const double ns_wheel_dense = queue_ns(100'000);

  const int cores = bench::usable_cores();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_core: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_micro_core\",\n");
  std::fprintf(f,
               "  \"scenario\": \"slim_fly q=7, uniform, load 0.9, 20us run / "
               "5us warmup, seed 1, best of 3\",\n");
  std::fprintf(f, "  \"events_per_sec_minimal\": %lld,\n",
               static_cast<long long>(eps_min));
  std::fprintf(f, "  \"events_per_sec_ugal\": %lld,\n",
               static_cast<long long>(eps_ugal));
  std::fprintf(f, "  \"cores\": %d,\n", cores);
  std::fprintf(f, "  \"cpu_model\": \"%s\",\n", bench::cpu_model().c_str());
  std::fprintf(f, "  \"ns_voq_push_pop\": %.2f,\n", ns_voq);
  std::fprintf(f, "  \"voq_cells_peak\": %zu,\n", voq_cells_peak);
  std::fprintf(f, "  \"packet_pool_peak_bytes\": %zu,\n", packet_pool_peak_bytes);
  std::fprintf(f, "  \"ns_pool_alloc_release\": %.2f,\n", ns_pool);
  std::fprintf(f, "  \"ns_csr_next_hops\": %.2f,\n", ns_csr);
  std::fprintf(f, "  \"ns_event_queue_wheel\": %.2f,\n", ns_wheel);
  std::fprintf(f, "  \"ns_event_queue_wheel_dense\": %.2f\n", ns_wheel_dense);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("events/sec: minimal=%lld ugal=%lld -> %s\n",
              static_cast<long long>(eps_min), static_cast<long long>(eps_ugal),
              path.c_str());
  return 0;
}

}  // namespace
}  // namespace d2net

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      return d2net::write_json_snapshot(arg.substr(7));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
