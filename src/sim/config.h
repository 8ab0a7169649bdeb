// Simulator configuration, defaulting to the paper's Section 4.1 setup:
// 100 Gb/s links with 50 ns latency, 100 ns switch traversal, 100 KB of
// buffering per port per direction, credit-based flow control, 256 B
// packets.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "sim/fault.h"

namespace d2net {

/// Opt-in detailed instrumentation (see sim/metrics.h). Disabled costs
/// nothing beyond a predictable branch per event handler; enabled runs
/// produce bit-identical core results (same event sequence, same RNG
/// stream) plus the SimMetrics block.
struct MetricsConfig {
  bool enabled = false;
  /// Buffer-occupancy sampling period (simulated time); must be > 0 when
  /// enabled.
  TimePs sample_period = us(1);
};

/// Which simulation backend executes a run (see docs/flow_engine.md).
enum class SimEngine {
  kPacket,  ///< per-packet event simulation (sim/network.h) — the default
  kFlow,    ///< flow-level max-min-fair rate model (flowsim/flow_sim.h)
};

/// Flow-engine knobs; ignored by the packet engine. The flow size and the
/// per-node concurrency are fixed (flowsim::kFlowBytes, kMaxActivePerNode).
struct FlowSimConfig {
  /// Rate recompute discipline: 0 re-waterfills the affected component
  /// after every flow event (exact max-min at all times); > 0 batches
  /// recomputes into periodic ticks of this simulated-time interval —
  /// the amortization needed at 10^5+ endpoints where one arrival touches
  /// a network-spanning bottleneck component.
  TimePs rate_interval = 0;
};

struct SimConfig {
  /// Simulation backend. Everything below ps_per_byte..seed applies to
  /// both engines; fault and metrics knobs are packet-only
  /// (the flow engine rejects them up front — flowsim::flow_engine_gap).
  SimEngine engine = SimEngine::kPacket;
  FlowSimConfig flow;

  /// Serialization cost; 80 ps/B == 100 Gb/s.
  std::int64_t ps_per_byte = ps_per_byte_at_gbps(100.0);
  TimePs link_latency = ns(50);
  TimePs router_latency = ns(100);
  int packet_bytes = 256;
  /// Input buffering per port per direction, split evenly across VCs.
  std::int64_t buffer_bytes_per_port = 100'000;
  std::uint64_t seed = 1;

  /// Virtual cut-through forwarding: a packet becomes forwardable one
  /// router latency after its *head* arrives instead of after its tail
  /// (how the paper's flit-level simulator behaves). With equal link
  /// rates this removes exactly one packet serialization (20.48 ns) of
  /// latency per hop and leaves saturation behavior untouched; buffers
  /// still hold whole packets (VCT, not wormhole). Default keeps
  /// store-and-forward for strict conservatism.
  bool cut_through = false;

  /// Must be 1: both engines run one serial event loop per simulation
  /// (parallelism comes from running sweep points concurrently, --jobs).
  /// Kept only because perfbench/rep.cpp still assigns it; SimStack
  /// rejects any other value.
  int shards = 1;

  /// Fold an FNV-1a digest over the dispatched event stream (time, okey,
  /// operands b..d and the type; sampling/watchdog ticks excluded like they
  /// are from events_processed). Costs a few ns per event — off outside
  /// determinism tests. The digest lands on OpenLoopResult/ExchangeResult.
  bool collect_event_digest = false;

  MetricsConfig metrics;

  /// Dynamic fault injection and the no-progress watchdog (see sim/fault.h
  /// and docs/resilience.md). Inert with an empty schedule.
  FaultConfig fault;

  /// Wall-clock budget per run in seconds; 0 disables. When the budget is
  /// exhausted the event loop stops cooperatively and the result carries
  /// timed_out=true plus whatever statistics accumulated (see
  /// docs/durable_sweeps.md). Distinct from the watchdog's wedged flag:
  /// wedged means the simulation stopped making progress, timed_out means
  /// the host ran out of patience.
  double wall_limit_seconds = 0.0;

  /// Paranoid self-audit: verify credit conservation and buffer-occupancy
  /// bounds on every wire at end-of-run and after every fault application
  /// (InternalError on violation). Also enabled by a non-empty, non-"0"
  /// D2NET_PARANOID environment variable. Off by default; bit-identical
  /// when off or passing (read-only checks outside the event loop).
  bool paranoid = false;

  /// Time for one packet to cross one link at line rate.
  TimePs packet_serialization() const {
    return static_cast<TimePs>(packet_bytes) * ps_per_byte;
  }
};

}  // namespace d2net
