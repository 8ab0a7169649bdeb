// Detailed simulator observability (opt-in via SimConfig::metrics).
//
// When enabled, NetworkSim instruments every router output port and VC —
// forwarded traffic split minimal/indirect, credit-stall time, sampled
// buffer occupancy — plus network-wide scalar counters in a
// MetricsRegistry, and exports one immutable SimMetrics block per run.
// The run-phase breakdown (warmup / measurement / drain accounting) is
// cheap enough that it is always collected and lives directly on
// OpenLoopResult.
//
// Instrumentation is perturbation-free by construction: it never touches
// the RNG, never reorders events (occupancy sampling uses dedicated
// read-only events that are excluded from events_processed), and with
// metrics disabled every added hot-path cost is a single predictable
// branch — enforced by test_metrics.cpp, which asserts bit-identical core
// results for enabled and disabled runs of the same seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/units.h"

namespace d2net {

/// Where each packet of a run fell relative to the measurement window
/// [window_start, window_end]. Always collected (a couple of integer
/// increments per packet), independent of SimConfig::metrics.enabled.
struct RunPhaseBreakdown {
  std::int64_t injected_warmup = 0;    ///< injected with gen_time < window start
  std::int64_t injected_measured = 0;  ///< injected with gen_time >= window start
  std::int64_t delivered_warmup = 0;   ///< delivered before the window opened
  /// Generated AND delivered inside the window — exactly the packets the
  /// latency/hop statistics are computed over.
  std::int64_t delivered_measured = 0;
  /// Generated during warmup but delivered inside the window. These carry
  /// the queueing transient the warmup exists to discard and are excluded
  /// from the measured distribution (their latencies go to the metrics
  /// registry histogram "carryover_latency_ns" when metrics are enabled).
  std::int64_t delivered_carryover = 0;
  /// Still in the network when the run stopped (the drain the open-loop
  /// run never waits for).
  std::int64_t in_flight_at_end = 0;
};

/// Per-VC traffic through one output port (the VC is the one the packet
/// occupied in the input buffer it was granted from).
struct VcMetrics {
  std::int64_t packets = 0;
  std::int64_t bytes = 0;
  std::int64_t minimal_packets = 0;   ///< packets on a minimal route
  std::int64_t indirect_packets = 0;  ///< packets on an indirect route
};

/// One router output port (network channel or ejection channel).
struct PortMetrics {
  int router = -1;
  int port = -1;         ///< output-port index at `router`
  int peer_router = -1;  ///< downstream router; -1 for ejection ports
  int peer_node = -1;    ///< ejected-to node; -1 for network ports
  /// Forwarded traffic inside the measurement window (matches the
  /// accounting of NetworkSim::channel_stats()).
  std::int64_t packets_forwarded = 0;
  std::int64_t bytes_forwarded = 0;
  /// Total simulated time during which this port sat idle with at least
  /// one eligible head blocked purely on downstream credit.
  TimePs credit_stall_ps = 0;
  /// Output-queue depth (bytes waiting at this router for this port),
  /// sampled every SimConfig::metrics.sample_period over the whole run.
  RunningStats occupancy_bytes;
  std::vector<VcMetrics> vcs;  ///< indexed by VC
};

/// One point of the network-wide buffer-occupancy time series.
struct OccupancySample {
  TimePs time = 0;
  std::int64_t buffered_bytes = 0;  ///< sum of all output-queue depths
};

/// Engine storage sizing, reported per run so capacity planning is
/// observable: NetworkSim reserves the event queue and packet pool at
/// construction from the topology shape (radix x VC count x expected
/// in-flight), and the *_reserved fields confirm what the backing stores
/// actually grew to by run end. VOQ cells are not pre-sized at all.
struct EngineCapacities {
  /// Event slots the queue holds: overflow-heap capacity, the active
  /// bucket's capacity and every chunk carved into the wheel's pool.
  std::size_t event_queue_reserved = 0;
  std::size_t packet_pool_reserved = 0;  ///< packet slots without reallocation
  std::size_t packet_pool_slots = 0;     ///< pool slots ever allocated (peak in-flight)
  /// High-water mark of live VOQ cells during the run: the most non-empty
  /// (in_port, vc, out_port) FIFOs at once, all routers. Never exceeds
  /// packet_pool_slots, since every live cell holds a packet.
  std::size_t voq_cells = 0;
};

/// Everything the instrumentation collected for one run. Attached to the
/// result as shared_ptr<const SimMetrics> so copying results stays cheap.
struct SimMetrics {
  TimePs sample_period = 0;
  EngineCapacities capacities;
  RunPhaseBreakdown phases;
  std::vector<PortMetrics> ports;          ///< ordered by (router, out port)
  std::vector<OccupancySample> occupancy;  ///< whole-run, one entry per sample tick
  /// Scalar sinks: counters "grants", "credit_blocked_skips",
  /// "injection_credit_stalls", "occupancy_samples"; histogram
  /// "carryover_latency_ns".
  MetricsRegistry registry;
};

}  // namespace d2net
