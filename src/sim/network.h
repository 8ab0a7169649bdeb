// Event-driven network simulator (paper Section 4.1).
//
// Model: input-buffered, VC-capable routers with credit-based flow control.
// Every directed link has a serialization stage at the sender (line rate),
// a propagation latency, and a per-VC input buffer at the receiver guarded
// by credits held at the sender. A packet becomes eligible for forwarding
// one router-traversal latency after it has fully arrived; output ports
// arbitrate round-robin over the eligible input-VC heads that request them
// and start serialization only when the downstream VC has buffer credit.
// Credits return with one link latency when a packet leaves the input
// buffer. Routing decisions (including the adaptive ones, which read this
// router's local output-queue occupancies through PortLoadProvider) are
// made once per packet, at injection.
//
// Granularity: events are per packet, with byte-accurate serialization,
// credit and buffer accounting. Relative to the paper's flit-level
// simulator this adds a store-and-forward delay of one packet
// serialization per hop (20.48 ns at 100 Gb/s / 256 B) — small against the
// 100 ns router traversal — and does not affect saturation behavior.
//
// Execution: one serial event loop over one EventQueue and one PacketPool.
// The (time, okey) event order, the per-entity RNG streams and the
// pool-independent Packet::uid make every run a pure function of its
// config and seed; tests/test_determinism_digest.cpp pins the FNV-1a
// digests of the dispatched event streams.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "routing/local_view.h"
#include "routing/routing_algorithm.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/packet.h"
#include "sim/trace.h"
#include "sim/voq.h"

namespace d2net {

class Topology;
class TrafficPattern;
class MinimalTable;

/// Rate-recompute counters of one flow-engine run (docs/flow_engine.md);
/// `enabled` is false for packet-engine results.
struct FlowEngineStats {
  bool enabled = false;
  std::int64_t repairs = 0;            ///< exact-mode local max-min repairs
  std::int64_t widen_rounds = 0;       ///< fill rounds run by repairs
  std::int64_t fallbacks = 0;          ///< repairs finished by a component re-waterfill
  std::int64_t flows_touched = 0;      ///< flows recomputed by repairs, fallbacks and ticks
  std::int64_t rate_changes = 0;       ///< rate changes committed
  std::int64_t stale_completions = 0;  ///< completion events skipped as outdated
};

/// Result of one open-loop synthetic-traffic run at a fixed offered load.
struct OpenLoopResult {
  double offered_load = 0.0;
  /// Ejected bytes in the measurement window over the aggregate ejection
  /// capacity — the paper's "throughput" axis (fraction of injection rate).
  double accepted_throughput = 0.0;
  double avg_latency_ns = 0.0;
  double p50_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  std::int64_t packets_measured = 0;
  std::int64_t packets_injected = 0;
  /// Discrete events dispatched during the run (engine-speed denominator
  /// for the benches' events/sec reporting).
  std::int64_t events_processed = 0;
  /// FNV-1a digest of the dispatched event stream; 0 unless
  /// SimConfig::collect_event_digest. Identical across sweep parallelism
  /// (pinned by tests/test_determinism_digest.cpp).
  std::uint64_t event_digest = 0;
  double avg_hops = 0.0;
  /// Share of packets the routing algorithm sent minimally (1.0 for MIN).
  double fraction_minimal = 0.0;
  /// Jain fairness index over per-node ejected bytes in the window
  /// (1.0 = perfectly even service; 1/N = one node starves all others).
  double jain_fairness = 0.0;
  /// Warmup / measurement / drain packet accounting; always populated.
  RunPhaseBreakdown phases;
  /// True when SimConfig::wall_limit_seconds expired before the run
  /// finished; the statistics above cover only the simulated time actually
  /// reached, and accepted_throughput is normalized by [warmup, t_stop].
  /// Distinct from faults.wedged (no simulated progress).
  bool timed_out = false;
  /// Simulated time the run reached: the run's duration unless it timed
  /// out, else the time of the last dispatched event.
  TimePs t_stop = 0;
  /// Fault-injection accounting (faults.enabled false for healthy runs).
  FaultStats faults;
  /// Flow-engine recompute counters (flow.enabled false on the packet engine).
  FlowEngineStats flow;
  /// Per-port/VC detail; non-null only with SimConfig::metrics.enabled.
  std::shared_ptr<const SimMetrics> metrics;
};

/// One message of an exchange workload.
struct ExchangeMessage {
  int dst_node = -1;
  std::int64_t bytes = 0;
};

/// How a node works through its message list.
enum class MessageOrder {
  kSequential,  ///< finish message i before starting i+1 (all-to-all phases)
  kRoundRobin,  ///< interleave packets across all open messages (neighbor exchange)
};

/// A complete exchange: per-node message lists plus ordering discipline.
struct ExchangePlan {
  std::string name;
  std::vector<std::vector<ExchangeMessage>> per_node;
  MessageOrder order = MessageOrder::kSequential;

  std::int64_t total_bytes() const;
  int active_nodes() const;  ///< nodes with at least one message
};

struct ExchangeResult {
  bool completed = false;
  double completion_us = 0.0;
  std::int64_t total_bytes = 0;
  /// Bytes actually delivered; equals total_bytes iff completed. A run cut
  /// short by the time limit or the watchdog reports its partial progress.
  std::int64_t delivered_bytes = 0;
  /// Delivered bytes per active node over completion time, as a fraction of
  /// the line rate — the paper's "effective throughput" (Figs. 13, 14).
  double effective_throughput = 0.0;
  double avg_latency_ns = 0.0;  ///< mean in-network packet latency
  /// FNV-1a digest of the dispatched event stream; 0 unless
  /// SimConfig::collect_event_digest.
  std::uint64_t event_digest = 0;
  /// True when SimConfig::wall_limit_seconds expired before completion or
  /// the simulated time limit (completed is false in that case).
  bool timed_out = false;
  /// Fault-injection accounting (faults.enabled false for healthy runs).
  FaultStats faults;
  /// Per-port/VC detail; non-null only with SimConfig::metrics.enabled.
  std::shared_ptr<const SimMetrics> metrics;
};

/// Simulator instance bound to one topology. Create, then attach a routing
/// algorithm (adaptive ones should be constructed with this object as their
/// PortLoadProvider), then call one run method per instance-reset cycle.
class NetworkSim final : public PortLoadProvider {
 public:
  /// `num_vcs` sizes the per-port VC buffers (buffer_bytes_per_port is
  /// split evenly); it must cover the highest VC index the routing emits.
  NetworkSim(const Topology& topo, const SimConfig& cfg, int num_vcs);

  /// Attaches the routing algorithm; must be called before running.
  void set_routing(const RoutingAlgorithm& algo) { routing_ = &algo; }

  /// Attaches an optional per-packet trace sink (nullptr detaches); the
  /// sink must outlive the runs it observes.
  void set_trace(PacketTraceSink* sink) { trace_ = sink; }

  /// Attaches a private, mutable minimal table for fault-aware rerouting
  /// (nullptr detaches). The sim rebuilds it healthy at run start and
  /// incrementally invalidates it on every fault event; the attached
  /// routing algorithm should be constructed over this same table so
  /// post-fault injections avoid dead links. Must outlive the runs. Without
  /// it (or with FaultConfig::reroute off) routing stays static and packets
  /// aimed at dead links are dropped on arrival.
  void set_fault_table(MinimalTable* table) { fault_table_ = table; }

  /// Synthetic open-loop run: Poisson generation at `load` (fraction of
  /// line rate) per node, simulated for `duration`. Throughput counts all
  /// bytes ejected in [warmup, duration]; the latency/hop distributions
  /// count only packets *generated* at or after `warmup` (warmup-born
  /// queueing transients are excluded and reported in the run-phase
  /// breakdown instead).
  OpenLoopResult run_open_loop(const TrafficPattern& pattern, double load, TimePs duration,
                               TimePs warmup);

  /// Closed-loop exchange run; aborts (completed = false) at `time_limit`.
  ExchangeResult run_exchange(const ExchangePlan& plan, TimePs time_limit);

  // PortLoadProvider (read by UGAL at injection time):
  std::int64_t output_queue_bytes(int router, int next_hop) const override;
  std::int64_t output_queue_capacity() const override;

  /// Observed traffic of one directed router-to-router channel during the
  /// last run's measurement window.
  struct ChannelStats {
    int router = -1;
    int neighbor = -1;
    std::int64_t bytes = 0;
    double utilization = 0.0;  ///< fraction of the channel's line rate
  };

  /// Per-channel forwarded bytes and utilization over the measurement
  /// window of the last run (ejection channels excluded). Ordered by
  /// (router, port).
  std::vector<ChannelStats> channel_stats() const;

  /// Out port of `router` toward its neighbour `neighbor`: the neighbour's
  /// index in topology().neighbors(router). Throws InternalError when the
  /// two are not adjacent.
  int out_port_toward(int router, int neighbor) const;

  const Topology& topology() const { return topo_; }
  const SimConfig& config() const { return cfg_; }
  int num_vcs() const { return num_vcs_; }
  /// Events dispatched by the last completed run.
  std::int64_t events_processed() const { return events_processed_; }
  /// VOQ cells live right now: non-empty (in_port, vc, out_port) FIFOs over
  /// all routers. Zero once every buffered packet has left its router.
  std::size_t live_voq_cells() const { return voq_.live(); }
  /// kHeadEligible events of the last run whose carried cell no longer held
  /// their FIFO, so the handler searched the input VC's list instead. Only
  /// a fault drain releases a cell under a pending event, so healthy runs
  /// report zero.
  std::int64_t stale_carried_cells() const { return stale_carried_cells_; }

 private:
  // --- state types ---
  /// Most VCs a port carries: sizes the inline per-VC credit arrays.
  static constexpr int kMaxVcs = 8;
  /// Port rows are scanned in blocks of this many neighbour ids.
  static constexpr int kRowBlock = 32;
  // Input VC buffers are organized as virtual output queues so a blocked
  // head for one output cannot stall traffic for another (the paper's
  // input-output-buffered switch is not head-of-line limited; a plain FIFO
  // input queue would cap uniform throughput near 75%). Each non-empty
  // (in_port, vc, out_port) FIFO is one live VoqCell of `voq_`, threaded
  // through the packet pool slots and listed under its input VC in
  // `ivc_head_` (see sim/voq.h).
  struct InPort {
    bool from_node = false;
    int peer_node = -1;
    int peer_router = -1;
    int peer_out_port = -1;
  };
  /// One output port in two cache lines. Line 0 holds everything
  /// try_grant's scan, the credit return and the UGAL cost read; line 1
  /// what a grant writes besides, plus the fault state (docs/perf.md has
  /// the byte map).
  struct alignas(64) OutPort {
    // --- line 0 ---
    TimePs free_at = 0;
    std::int64_t queued_bytes = 0;  ///< UGAL occupancy: waiting at this router
    /// Intrusive FIFO (through VoqCell::next_ready) of the input VOQs whose
    /// eligible head requests this port.
    ReadyList ready;
    bool to_node = false;
    /// Per VC, the first num_vcs_ entries; unused for ejection ports.
    std::int32_t credits[kMaxVcs] = {};
    // --- line 1 ---
    std::int64_t bytes_sent_window = 0;  ///< forwarded bytes inside the window
    /// Per-VC bytes of credit currently in flight toward this port; lets a
    /// link-up resync recompute credits without double-counting returns
    /// that were already on the (intact) reverse wire.
    std::int32_t credits_pending[kMaxVcs] = {};
    int peer_node = -1;
    int peer_router = -1;
    int peer_in_port = -1;
    // Fault state (only read when the schedule is non-empty):
    std::uint32_t epoch = 0;  ///< bumped per cut; mismatched packets died on the wire
    /// *Believed* liveness of this direction — what the owning router acts
    /// on when granting and salvaging. With oracle faults it always equals
    /// phys_up; with FaultConfig::propagation it lags by the detection and
    /// flood latency, which is exactly the modeled inconsistency window.
    bool up = true;
    /// *Physical* liveness of the wire: drives in-flight destruction and
    /// arrival checks regardless of what any router believes.
    bool phys_up = true;
    /// Liveness the shared fault table currently reflects (propagation
    /// runs only): advanced at each update's convergence, in lock-step
    /// with the incremental table refresh (see link_admitted).
    bool table_up = true;
  };
  static_assert(sizeof(OutPort) == 128);
  static_assert(offsetof(OutPort, credits) + sizeof(OutPort::credits) <= 64,
                "try_grant's fields must share cache line 0");
  struct RouterState {
    std::vector<InPort> in_ports;    ///< [0, deg): network; then injection
    std::vector<OutPort> out_ports;  ///< [0, deg): network; then ejection
    /// This router's port row in port_rows_: its neighbours in adjacency
    /// order (index = out port), padded to kRowBlock entries.
    std::int32_t row_base = 0;
    std::int32_t degree = 0;    ///< network ports; the row holds round_up(degree, kRowBlock)
    std::int32_t ivc_base = 0;  ///< first input VC of this router in ivc_head_
  };
  /// FIFO of open-loop generation timestamps: a vector plus a head index,
  /// so a NIC that never backlogs owns no storage and a drained backlog
  /// keeps its capacity for the next burst.
  struct Backlog {
    std::vector<TimePs> times;
    std::size_t head = 0;

    bool empty() const { return head == times.size(); }
    std::size_t size() const { return times.size() - head; }
    TimePs front() const { return times[head]; }
    void push(TimePs t) { times.push_back(t); }
    void pop() {
      if (++head == times.size()) {
        clear();
      } else if (head >= 64 && 2 * head >= times.size()) {
        // A backlog that never drains would otherwise keep every timestamp
        // it ever held; dropping the consumed half keeps pop amortized O(1).
        times.erase(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
    void clear() {
      times.clear();
      head = 0;
    }
  };
  /// One NIC; line 0 holds what the credit return and an injection read.
  struct alignas(64) NicState {
    // --- line 0 ---
    TimePs free_at = 0;
    std::int32_t credits[kMaxVcs] = {};  ///< mirror of injection in-port buffer
    int router = -1;
    int in_port = -1;
    // --- lines 1-2 ---
    Backlog pending;  ///< open-loop generation timestamps
    std::int32_t credits_pending[kMaxVcs] = {};  ///< see OutPort::credits_pending
    std::vector<ExchangeMessage> messages;
    std::size_t cursor = 0;
  };

  // --- helpers ---
  void reset();
  /// Index of the input VC (in_port, vc) of `rs` in ivc_head_.
  std::size_t ivc_index(const RouterState& rs, int in_port, int vc) const {
    return static_cast<std::size_t>(rs.ivc_base) +
           static_cast<std::size_t>(in_port * num_vcs_ + vc);
  }
  /// Live cell of the (in_port, vc, out_idx) FIFO of `rs`; -1 when that
  /// FIFO is empty. Throws InternalError on a cyclic input-VC list.
  std::int32_t find_cell(const RouterState& rs, int in_port, int vc, int out_idx) const;
  /// find_cell() on `router`, taking a fresh cell from the pool when the
  /// FIFO is empty. May grow voq_: re-index any VoqCell reference held
  /// across the call.
  std::int32_t cell_for_push(int router, int in_port, int vc, int out_idx);
  /// Unlinks the emptied cell `ci`, which no ready list will visit again,
  /// from its input VC's list and returns it to the pool. Throws
  /// InternalError when the list is cyclic or lacks the cell.
  void release_cell(const RouterState& rs, std::int32_t ci);
  int out_port_for_packet(int router, const Packet& pkt) const;

  void try_inject(int node, TimePs now);
  void handle_arrive_router(int pkt_id, int router, int in_port, int vc, TimePs now);
  /// Schedules the kHeadEligible event of cell `ci`, the (in_port, vc,
  /// out_idx) FIFO of `router`, whose head became eligible at `at`.
  void schedule_head_eligible(TimePs at, std::int32_t ci, int router, int in_port, int vc,
                              int out_idx);
  /// kHeadEligible: `carried` is the cell the event was scheduled for; it
  /// is trusted only while it still holds the named FIFO.
  void handle_head_eligible(std::int32_t carried, int router, int in_port, int vc,
                            int out_idx, TimePs now);
  void try_grant(int router, int out_idx, TimePs now);
  void handle_arrive_node(int pkt_id, TimePs now);
  void handle_metrics_sample(TimePs now);
  void dispatch(const Event& e);
  /// The event loop: dispatches every event up to `end` in (time, okey)
  /// order, stopping early on exchange completion, a wedge or the
  /// wall-clock deadline.
  void run_until(TimePs end);

  // --- fault machinery (see sim/fault.h; inert with an empty schedule) ---
  /// Per-run fault/watchdog setup: resets counters, seeds kFault/kWatchdog
  /// events, rebuilds the attached fault table healthy.
  void setup_faults();
  /// True when `out_idx` of `router` cannot currently send.
  bool out_port_dead(int router, int out_idx) const;
  /// The link-aliveness predicate fed to MinimalTable rebuilds.
  bool link_admitted(int a, int b) const;
  /// Applies schedule entry `idx` physically; with propagation it also
  /// registers the link-state update and schedules the detections (all
  /// believed-state changes then happen at detect/flood time).
  void apply_fault(int idx, TimePs now);
  /// Refreshes the fault table after the link (u, v) changed (u < 0 = full
  /// rebuild, used by router events) and tracks peak disconnection.
  void refresh_fault_table(int u, int v);
  /// Empties every VOQ feeding `out_idx`, salvaging or dropping the
  /// stranded packets. `credit_returns` off when the router itself died.
  void drain_out_port(int router, int out_idx, TimePs now, bool credit_returns,
                      bool allow_salvage);
  /// Recomputes credits for direction u -> v from the peer's actual buffer
  /// occupancy minus credit returns still in flight.
  void resync_link_credits(int u, int v);
  void resync_nic_credits(int node);
  /// Bytes buffered in the input VC (in_port, vc) of `rs`, summed over its
  /// per-output FIFOs (credit resync and the paranoid audit).
  std::int64_t input_vc_bytes(const RouterState& rs, int in_port, int vc) const;
  /// Rewrites pkt's route tail with a fresh path from `router`; false when
  /// salvage is unavailable (no table / unreachable / hop limit, or — with
  /// propagation — every believed-live option is exhausted).
  bool salvage_route(Packet& pkt, int router);
  /// Returns the freed input-buffer credit upstream (skipped when the
  /// upstream side is dead; its credits resync on revival).
  void return_input_credit(int router, int in_port, int vc, int bytes, TimePs now);
  /// Drop accounting + retry-with-backoff or permanent loss.
  void drop_packet(int pkt_id, TimePs now);
  void handle_retry(int pkt_id, TimePs now);
  void handle_watchdog(TimePs now);
  bool outstanding_work() const;

  // --- modeled control plane (FaultConfig::propagation; see
  // docs/resilience.md). Its events share the one event queue with the
  // data plane.
  /// kFaultDetect: `router`'s missed-credit timeout for schedule entry
  /// `idx` fires; it learns locally and originates the flood.
  void handle_fault_detect(int router, int idx, TimePs now);
  /// kFloodArrive: the flooded update for entry `idx` reaches `router`
  /// (duplicates are digested no-ops).
  void handle_flood_arrive(int router, int idx, TimePs now);
  /// Shared learning path: absorb update `idx` into `router`'s local view,
  /// re-derive its believed port states, re-flood to physical neighbors,
  /// and advance the convergence tracker (shared-table refresh happens at
  /// convergence, not before).
  void learn_update(int router, int idx, bool detection, TimePs now);
  /// Re-derives `router`'s believed out-port `up` flags from its local
  /// view: newly-believed-dead ports drain (local-view salvage), newly-
  /// believed-live ones resync credits and resume granting.
  void apply_believed_ports(int router, TimePs now);
  /// Schedules the kFaultDetect events of schedule entry `idx` for every
  /// router that locally observes it (link endpoints / the neighborhood of
  /// a downed or revived router).
  void schedule_detections(int idx, TimePs now);
  /// True when `router`'s local view believes every remaining hop of
  /// `pkt`'s route (from `from_hop` on) is alive.
  bool route_believed_alive(const Packet& pkt, int router, int from_hop) const;
  /// Local-greedy detour: rewrites the route through a believed-live
  /// neighbor, spending one unit of the packet's misroute budget. False
  /// when the budget or every neighbor is exhausted.
  bool misroute_detour(Packet& pkt, int router);

  /// Arms (or disarms) the cooperative wall-clock deadline for one run.
  void arm_deadline();
  /// Paranoid invariant sweep (see SimConfig::paranoid): per-wire credit
  /// conservation and buffer-occupancy bounds, VOQ byte-count consistency,
  /// and the live-cell pool's list structure.
  /// Throws InternalError with the violated invariant. No-op unless
  /// paranoid mode is on.
  void self_audit(const char* where) const;

  /// Finalizes the per-run SimMetrics block (nullptr when disabled).
  std::shared_ptr<const SimMetrics> build_metrics();

  /// Builds the packet's route at injection; returns false when the NIC
  /// must stall (insufficient injection credit).
  bool start_injection(int node, int dst, int size, TimePs gen_time, TimePs now);

  // --- immutable wiring ---
  const Topology& topo_;
  SimConfig cfg_;
  int num_vcs_;
  std::int64_t vc_buffer_bytes_;
  const RoutingAlgorithm* routing_ = nullptr;
  PacketTraceSink* trace_ = nullptr;

  // --- mutable run state ---
  std::vector<RouterState> routers_;
  /// Every router's port row back to back (RouterState::row_base), each
  /// padded with the router's own id, which is never its own neighbour.
  std::vector<std::uint16_t> port_rows_;
  /// Live VOQ cells of all routers (cleared, capacity kept, per run).
  VoqCellPool voq_;
  /// Per (router, in_port, vc): head of that input VC's live-cell list
  /// (through VoqCell::next_sib), -1 = the input VC holds nothing.
  std::vector<std::int32_t> ivc_head_;
  std::vector<NicState> nics_;
  EventQueue queue_;
  PacketPool pool_;
  /// Per-entity RNG streams (seeded per run from SimConfig::seed): one per
  /// node (generation, destination draw, injection routing) and one per
  /// router (salvage rerouting). Entity-local streams keep each entity's
  /// draw sequence fixed by its own events, not by global interleaving.
  std::vector<Rng> node_rng_;
  std::vector<Rng> router_rng_;
  /// Per-node injection counter behind Packet::uid; reset per run.
  std::vector<std::uint64_t> node_uid_ctr_;

  TimePs now_ = 0;
  std::int64_t events_processed_ = 0;
  std::int64_t stale_carried_cells_ = 0;  ///< see stale_carried_cells()
  /// FNV-1a over the dispatched event stream; see
  /// SimConfig::collect_event_digest.
  bool digest_enabled_ = false;
  std::uint64_t event_digest_ = 0;

  // open-loop bookkeeping
  const TrafficPattern* pattern_ = nullptr;
  double load_ = 0.0;
  TimePs gen_end_ = 0;
  TimePs window_start_ = 0;
  TimePs window_end_ = 0;

  // exchange bookkeeping
  bool exchange_mode_ = false;
  MessageOrder plan_order_ = MessageOrder::kSequential;
  std::int64_t exchange_remaining_ = 0;
  TimePs exchange_completion_ = -1;

  // fault / watchdog state (all counters; the hot path only ever tests
  // faults_enabled_ when the schedule is empty)
  bool faults_enabled_ = false;
  /// FaultConfig::propagation_enabled() snapshot for the run: gates every
  /// control-plane branch, so oracle runs stay bit-identical to pre-
  /// propagation builds (enforced by tests/test_determinism_digest.cpp).
  bool prop_enabled_ = false;
  MinimalTable* fault_table_ = nullptr;  ///< non-owning, see set_fault_table
  std::vector<std::uint8_t> router_dead_;
  /// Router liveness the shared fault table reflects (propagation runs
  /// only); the router-level counterpart of OutPort::table_up.
  std::vector<std::uint8_t> table_router_dead_;
  /// Per-router believed fault knowledge (propagation runs only; cleared —
  /// and never consulted — otherwise).
  LocalFaultView view_;
  FaultStats fstats_;
  int hop_limit_ = 0;  ///< effective per-run value (config 0 = auto)
  bool wedged_ = false;
  /// Monotone activity counter (injections, grants, deliveries, credit
  /// returns, retries, fault applications). The watchdog fires when it
  /// stops moving while work is outstanding.
  std::uint64_t progress_ = 0;
  std::uint64_t watch_last_ = 0;

  // wall-clock deadline (cooperative cancellation; see
  // SimConfig::wall_limit_seconds). The loop reads the clock once per
  // kDeadlineStride dispatched events, so the event sequence — and thus
  // every result — is bit-identical whether the deadline is off, armed but
  // unhit, or absent entirely.
  static constexpr int kDeadlineStride = 2048;
  bool deadline_enabled_ = false;
  bool timed_out_ = false;
  int deadline_countdown_ = 0;
  std::chrono::steady_clock::time_point deadline_{};

  bool paranoid_ = false;  ///< SimConfig::paranoid or D2NET_PARANOID env

  // statistics (fault counters live on fstats_)
  std::int64_t ejected_bytes_window_ = 0;
  std::vector<std::int64_t> ejected_per_node_;
  std::int64_t packets_injected_ = 0;
  std::int64_t packets_minimal_ = 0;
  std::int64_t hop_sum_ = 0;  ///< integer hop total: exact mean
  std::int64_t hop_count_ = 0;
  LogHistogram latency_ns_;
  RunPhaseBreakdown phases_;  ///< always collected (integer increments only)

  // detailed instrumentation (allocated/active only when
  // cfg_.metrics.enabled; see sim/metrics.h for the exported shape)
  struct PortInstr {
    PortMetrics m;
    TimePs stall_since = -1;  ///< open credit-stall interval start, -1 = none
  };
  bool metrics_enabled_ = false;
  std::vector<std::vector<PortInstr>> port_instr_;  ///< [router][out port]
  std::vector<OccupancySample> occupancy_series_;
  std::unique_ptr<MetricsRegistry> registry_;  ///< rebuilt per run
  // Handles resolved once per run so hot paths never do name lookups.
  MetricsRegistry::Counter* ctr_grants_ = nullptr;
  MetricsRegistry::Counter* ctr_credit_skips_ = nullptr;
  MetricsRegistry::Counter* ctr_injection_stalls_ = nullptr;
  MetricsRegistry::Counter* ctr_samples_ = nullptr;
  LogHistogram* hist_carryover_ns_ = nullptr;
};

}  // namespace d2net
