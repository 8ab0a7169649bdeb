// Flow-level max-min-fair fast engine (SimConfig::engine == kFlow; see
// docs/flow_engine.md).
//
// Instead of per-packet events, a flow carries a complete path (decided
// once at start by the ordinary routing layer — MIN / Valiant / UGAL over
// the same MinimalTable CSR tables the packet engine uses) and a rate
// assigned by progressive water-filling over link capacities (waterfill.h).
// Simulated time advances by flow arrival/start/finish events only, so one
// event covers what the packet engine spends thousands of events on — the
// scale lever that reaches 10^5-10^6 endpoints (ROADMAP's first open
// item).
//
// Two recompute disciplines, selected by FlowSimConfig::rate_interval:
//   0   exact: after every flow arrival/departure, repair the max-min rates
//       locally around the changed links and certify the result as the
//       global fixed point (repair_from in waterfill.h), falling back to a
//       component re-waterfill when the repair does not stay local. Default.
//   > 0 batched: new/removed flows mark their links dirty; a periodic rate
//       tick re-waterfills the dirty components. New flows run at an
//       optimistic estimate (min over their links of 1/flow-count) until
//       the next tick. Amortizes recompute cost at saturation scale, where
//       one arrival would otherwise touch a network-spanning component.
//
// Determinism: a single event heap ordered by (time, seq) with seq
// assigned at push, per-node xoshiro streams seeded exactly like the
// packet engine's, and the waterfill's (ratio, link-id) ordering make every
// run bit-reproducible — independent of --jobs, because one simulation is
// always one serial event loop.
//
// Packet-only features are rejected up front (ArgumentError): fault
// schedules, --metrics, and --shards > 1 have no flow-level counterpart
// (see docs/flow_engine.md, "What is and isn't comparable").
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "flowsim/flow_graph.h"
#include "flowsim/waterfill.h"
#include "routing/routing_algorithm.h"
#include "sim/config.h"
#include "sim/network.h"

namespace d2net {
class MinimalTable;
class Topology;
class TrafficPattern;
}  // namespace d2net

namespace d2net::flowsim {

class FlowSim final : public PortLoadProvider, private RateChangeSink {
 public:
  /// Throws ArgumentError when `cfg` requests packet-only features (fault
  /// injection, metrics, shards > 1) or carries invalid flow knobs.
  FlowSim(const Topology& topo, const SimConfig& cfg);

  /// Attaches the routing algorithm; must be called before running.
  /// Adaptive algorithms should be constructed with this object as their
  /// PortLoadProvider.
  void set_routing(const RoutingAlgorithm& algo) { routing_ = &algo; }

  /// Open-loop run: Poisson flow arrivals per node at `load` (fraction of
  /// line rate, flow size FlowSimConfig::flow_bytes), destinations drawn
  /// from `pattern` at flow start. Each node runs at most
  /// FlowSimConfig::max_active_per_node concurrent flows (NIC
  /// serialization); excess arrivals queue, which is what makes offered >
  /// capacity show up as accepted < offered. Throughput counts bytes
  /// delivered inside [warmup, duration]; latency is *flow completion*
  /// latency of flows started at or after warmup (not packet latency — see
  /// docs/flow_engine.md), and packets_injected/measured count flows.
  OpenLoopResult run_open_loop(const TrafficPattern& pattern, double load, TimePs duration,
                               TimePs warmup);

  /// Closed-loop exchange run over an explicit plan; aborts (completed =
  /// false) at `time_limit`. kSequential starts each node's message i+1
  /// when i finishes; kRoundRobin opens all of a node's messages
  /// concurrently and lets water-filling share the NIC.
  ExchangeResult run_exchange(const ExchangePlan& plan, TimePs time_limit);

  /// Closed-form fluid all-to-all completion (every node sends
  /// bytes_per_pair to every other node): expected per-link load under
  /// minimal routing (distance-1 pairs use the direct link; distance-2
  /// pairs split uniformly over the CSR next-hop set), bottleneck =
  /// most-loaded link including injection/ejection. This is the aggregate
  /// limit of the flow model — the only way to state all-to-all completion
  /// at >=10^5 endpoints, where the N^2 per-message plan cannot even be
  /// materialized. Requires a diameter-<=2 table; see docs/flow_engine.md
  /// for what this approximation does and doesn't capture.
  ExchangeResult run_fluid_all_to_all(const MinimalTable& table,
                                      std::int64_t bytes_per_pair) const;

  // PortLoadProvider (read by UGAL at flow start): occupancy is modeled as
  // flows-on-link x packet_bytes. Relative comparisons (UGAL's CM vs c*CI)
  // are meaningful; absolute thresholds calibrated against packet-queue
  // occupancy are not (docs/flow_engine.md).
  std::int64_t output_queue_bytes(int router, int next_hop) const override;
  std::int64_t output_queue_capacity() const override;

  /// Flow events dispatched by the last run.
  std::int64_t events_processed() const { return events_processed_; }
  /// Flows started / completed by the last run.
  std::int64_t flows_started() const { return flows_started_; }
  std::int64_t flows_completed() const { return flows_completed_; }

  const Topology& topology() const { return topo_; }
  const SimConfig& config() const { return cfg_; }

 private:
  enum class EventKind : std::uint8_t { kArrival = 0, kCompletion = 1, kRateTick = 2 };
  struct Event {
    TimePs time = 0;
    std::uint64_t seq = 0;
    std::int32_t a = -1;       ///< node (kArrival) or flow (kCompletion)
    std::uint32_t gen = 0;     ///< kCompletion: flow generation at push time
    EventKind kind = EventKind::kArrival;
  };

  void reset();
  void push_event(TimePs time, EventKind kind, std::int32_t a, std::uint32_t gen);
  bool run_until(TimePs end);  ///< returns false on wall-limit timeout
  void dispatch_arrival(const Event& e);
  void dispatch_completion(const Event& e);
  void dispatch_rate_tick();

  /// Routes and registers a flow; leaves its links in link_scratch_[0, n)
  /// and returns n.
  int start_flow(int src_node, int dst_node, double bytes);
  void finish_flow(int flow);
  /// Exact mode: settles every rate after the flows on `links` changed.
  void recompute(const std::int32_t* links, int n);
  void accrue(int flow);
  void schedule_completion(int flow);
  void mark_dirty(const std::int32_t* links, int n);
  void grow_flow_arrays();
  TimePs completion_delay(double remaining_bytes, double rate) const;
  void final_accrual(TimePs at);

  // RateChangeSink: accrue at the old rate, write the new one, reschedule.
  void on_rate_change(int flow, double new_rate) override;

  const Topology& topo_;
  const SimConfig cfg_;
  const RoutingAlgorithm* routing_ = nullptr;
  FlowGraph graph_;
  FlowTable table_;
  WaterfillScratch scratch_;

  // Per-flow (parallel to FlowTable ids).
  std::vector<std::int32_t> src_of_;
  std::vector<std::int32_t> dst_of_;
  std::vector<TimePs> start_of_;
  std::vector<TimePs> last_update_;
  std::vector<std::uint32_t> gen_of_;

  // Per-node open-loop / exchange state.
  std::vector<Rng> node_rng_;
  std::vector<std::int32_t> active_of_node_;
  std::vector<std::int32_t> backlog_of_node_;
  std::vector<std::int32_t> cursor_of_node_;  ///< exchange: next message index
  std::vector<double> ejected_per_node_;      ///< bytes into the window, by dst

  // Batched-mode dirty-link set (epoch-stamped dedup).
  std::vector<std::int32_t> dirty_links_;
  std::vector<std::uint32_t> dirty_mark_;
  std::uint32_t dirty_epoch_ = 0;

  // Event heap (min on (time, seq)) plus scratch for recompute seeds: a new
  // flow's links first, then those of the flow that departed in the same
  // event.
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  std::int32_t link_scratch_[2 * kMaxLinksPerFlow] = {};
  Route route_scratch_;

  // Run state.
  const TrafficPattern* pattern_ = nullptr;
  const ExchangePlan* plan_ = nullptr;
  double load_ = 0.0;
  TimePs now_ = 0;
  TimePs gen_end_ = 0;
  TimePs window_start_ = 0;
  TimePs window_end_ = 0;
  bool exchange_mode_ = false;
  bool timed_out_ = false;
  /// Batched exchange setup: start_flow leaves rates at 0 for one
  /// waterfill_all instead of assigning estimates.
  bool defer_rates_ = false;
  std::int64_t exchange_msgs_open_ = 0;
  std::int64_t exchange_msgs_total_ = 0;
  TimePs exchange_completion_ = -1;

  // Statistics.
  FlowEngineStats stats_;
  std::int64_t events_processed_ = 0;
  std::uint64_t event_digest_ = 0;
  std::int64_t flows_started_ = 0;
  std::int64_t flows_completed_ = 0;
  std::int64_t injected_warmup_ = 0;
  std::int64_t injected_measured_ = 0;
  std::int64_t delivered_warmup_ = 0;
  std::int64_t delivered_measured_ = 0;
  std::int64_t delivered_carryover_ = 0;
  std::int64_t hop_sum_ = 0;
  std::int64_t minimal_flows_ = 0;
  double delivered_window_bytes_ = 0.0;
  double delivered_total_bytes_ = 0.0;
  LogHistogram latency_ns_;
};

}  // namespace d2net::flowsim
