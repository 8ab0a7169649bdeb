// Experiment orchestration: ties a topology to its minimal table, routing
// algorithm, VC provisioning and a simulator instance, and provides the
// load-sweep / exchange drivers the benches are built from.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flowsim/flow_sim.h"
#include "routing/factory.h"
#include "routing/minimal_table.h"
#include "sim/exchange.h"
#include "sim/network.h"
#include "sim/traffic.h"
#include "topology/topology.h"

namespace d2net {

/// VCs a strategy needs on a given topology (Section 3.4): minimal routing
/// uses hop-indexed VCs on the SF (2) and a single VC on the SSPTs;
/// indirect/adaptive routing doubles both.
int num_vcs_needed(const Topology& topo, const MinimalTable& table, RoutingStrategy strategy);

/// Owns the full simulation stack for one (topology, routing) combination.
/// The adaptive algorithms read the simulator's live queue state.
///
/// SimConfig::engine picks the backend: the per-packet event simulator
/// (kPacket, the default) or the flow-level max-min-fair rate engine
/// (kFlow; see docs/flow_engine.md). Only the selected engine is
/// constructed — a flow run at 10^5+ endpoints must never pay for the
/// packet engine's per-port and per-input-VC state — and
/// both engines see the identical topology/table/routing/traffic inputs.
class SimStack {
 public:
  SimStack(const Topology& topo, RoutingStrategy strategy, const SimConfig& cfg,
           std::optional<UgalParams> params = std::nullopt);

  /// Shares a precomputed minimal table instead of rebuilding the all-pairs
  /// BFS per stack — the parallel sweep runner constructs one stack per
  /// in-flight point, all referencing one immutable table per system.
  /// `intermediates` optionally shares the Valiant candidate set the same
  /// way (null = built privately when the strategy needs one).
  SimStack(const Topology& topo, std::shared_ptr<const MinimalTable> table,
           RoutingStrategy strategy, const SimConfig& cfg,
           std::optional<UgalParams> params = std::nullopt,
           SharedIntermediates intermediates = nullptr);

  OpenLoopResult run_open_loop(const TrafficPattern& pattern, double load, TimePs duration,
                               TimePs warmup);
  /// Closed-loop exchange; packet engine only (a flow stack throws
  /// ArgumentError, see docs/flow_engine.md).
  ExchangeResult run_exchange(const ExchangePlan& plan, TimePs time_limit);

  /// Closed-form fluid all-to-all completion at scales where the per-pair
  /// ExchangePlan cannot be materialized; flow engine only (see
  /// flowsim::FlowSim::run_fluid_all_to_all).
  ExchangeResult run_fluid_all_to_all(std::int64_t bytes_per_pair);

  const Topology& topology() const { return topo_; }
  const MinimalTable& table() const { return *table_; }
  const RoutingAlgorithm& routing() const { return *algo_; }
  /// The packet engine instance; rejects flow-engine stacks (callers that
  /// poke packet internals — tracing, channel stats — have
  /// no flow-level counterpart to fall back on).
  NetworkSim& sim();
  /// Engine selected by the config this stack was built with.
  SimEngine engine() const { return cfg_engine_; }

 private:
  const Topology& topo_;
  std::shared_ptr<const MinimalTable> table_;
  SimEngine cfg_engine_;
  std::unique_ptr<NetworkSim> packet_;
  std::unique_ptr<flowsim::FlowSim> flow_;
  std::unique_ptr<RoutingAlgorithm> algo_;
  /// Private mutable table copy for fault-aware rerouting: allocated only
  /// when the config schedules faults with reroute on, so concurrent sweep
  /// points can keep sharing the immutable healthy table. The routing
  /// algorithm and the simulator both point at this copy, which the sim
  /// invalidates incrementally on every fault event.
  std::unique_ptr<MinimalTable> fault_table_;
};

/// One row of a Fig. 6-12 style sweep.
struct SweepPoint {
  double offered = 0.0;
  OpenLoopResult result;
  /// Simulation attempts consumed (> 1 after deadline/exception retries;
  /// see docs/durable_sweeps.md).
  int attempts = 1;
  /// True when every attempt ended in an exception; `error` carries the
  /// last exception text and `result` is default-constructed. Only set
  /// under a journaled run (otherwise the exception propagates).
  bool failed = false;
  std::string error;
  /// True when this point was not simulated but replayed from a journal;
  /// restored_json is the rendered result fragment recorded by the original
  /// run, spliced verbatim into reports for byte-identical output.
  bool restored = false;
  std::string restored_json;
};

/// Runs the open-loop simulation at each offered load.
std::vector<SweepPoint> run_load_sweep(SimStack& stack, const TrafficPattern& pattern,
                                       const std::vector<double>& loads, TimePs duration,
                                       TimePs warmup);

/// Offered load of the last point that still accepts >= `threshold` of its
/// offered traffic — the "throughput saturation point" reported in Fig. 6.
/// Failed and timed-out points are not judged. If no judged point passes,
/// the first judged point's accepted throughput (0 if there is none).
double saturation_point(const std::vector<SweepPoint>& sweep, double threshold = 0.95);

/// Default load grids.
std::vector<double> uniform_load_grid();     ///< coarse 0.1 .. 1.0
std::vector<double> adversarial_load_grid(); ///< dense at low loads

}  // namespace d2net
