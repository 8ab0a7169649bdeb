#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.h"
#include "routing/minimal_table.h"
#include "sim/traffic.h"
#include "topology/topology.h"

namespace d2net {

std::int64_t ExchangePlan::total_bytes() const {
  std::int64_t total = 0;
  for (const auto& msgs : per_node) {
    for (const auto& m : msgs) total += m.bytes;
  }
  return total;
}

int ExchangePlan::active_nodes() const {
  int n = 0;
  for (const auto& msgs : per_node) n += msgs.empty() ? 0 : 1;
  return n;
}

namespace {
// D2NET_PARANOID: any non-empty value other than "0" enables the self-audit
// without touching configs — handy for soaking an entire bench suite.
bool paranoid_env() {
  static const bool on = [] {
    const char* v = std::getenv("D2NET_PARANOID");
    return v != nullptr && *v != '\0' && std::string(v) != "0";
  }();
  return on;
}

// FNV-1a over the dispatched-event stream; the offset doubles as the
// empty-stream digest so "no events" still hashes to a fixed value.
constexpr std::uint64_t kDigestOffset = 1469598103934665603ULL;
constexpr std::uint64_t kDigestPrime = 1099511628211ULL;

inline std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFFu)) * kDigestPrime;
  }
  return h;
}

// The digest words fold an event's full identity without its pool slot:
// `a` is a pool index for the packet-carrying kinds (and is
// embedded in the okey for every other kind), so hashing it would make the
// digest depend on allocator state instead of simulation content.
inline std::uint64_t digest_w1(const Event& e) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.b)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.c)) << 32);
}

inline std::uint64_t digest_w2(const Event& e) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.d)) |
         (static_cast<std::uint64_t>(e.type) << 32);
}

inline std::uint64_t fold_digest(std::uint64_t h, TimePs time, std::uint64_t okey,
                                 std::uint64_t w1, std::uint64_t w2) {
  h = fnv1a_step(h, static_cast<std::uint64_t>(time));
  h = fnv1a_step(h, okey);
  h = fnv1a_step(h, w1);
  h = fnv1a_step(h, w2);
  return h;
}

// SplitMix64 finalizer: decorrelated per-entity seed streams from one run
// seed (the draw order within one entity is fixed by the realized event
// order).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Bounded shared-table resamples against the local fault view before a
// salvage escalates to a local-greedy detour (propagation runs only). The
// count is fixed so the router-local RNG draw sequence stays deterministic.
constexpr int kSalvageSamples = 4;
}  // namespace

NetworkSim::NetworkSim(const Topology& topo, const SimConfig& cfg, int num_vcs)
    : topo_(topo), cfg_(cfg), num_vcs_(num_vcs) {
  D2NET_REQUIRE(topo.finalized(), "topology must be finalized");
  // Packets carry their routes as 16-bit router ids (see routing/route.h).
  D2NET_REQUIRE(topo.num_routers() <= Route::kMaxRouterIds,
                "routes store router ids in 16 bits: at most 65,536 routers");
  D2NET_REQUIRE(num_vcs >= 1 && num_vcs <= 8, "unreasonable VC count");
  vc_buffer_bytes_ = cfg_.buffer_bytes_per_port / num_vcs_;
  D2NET_REQUIRE(vc_buffer_bytes_ >= cfg_.packet_bytes,
                "per-VC buffer smaller than one packet");
  // The VCT fast path assumes the whole packet is buffered by the time the
  // router may forward it (eligibility = head + router latency).
  D2NET_REQUIRE(!cfg_.cut_through || cfg_.router_latency >= cfg_.packet_serialization(),
                "cut-through mode requires router latency >= packet serialization");

  routers_.resize(topo.num_routers());
  nics_.resize(topo.num_nodes());
  for (int r = 0; r < topo.num_routers(); ++r) {
    RouterState& rs = routers_[r];
    const auto& nbrs = topo.neighbors(r);
    const int deg = static_cast<int>(nbrs.size());
    const int p = topo.endpoints_of(r);
    rs.in_ports.resize(deg + p);
    rs.out_ports.resize(deg + p);
    for (int i = 0; i < deg; ++i) {
      rs.port_of_neighbor.emplace_back(nbrs[i], i);
    }
    std::sort(rs.port_of_neighbor.begin(), rs.port_of_neighbor.end());
    for (std::size_t i = 1; i < rs.port_of_neighbor.size(); ++i) {
      D2NET_REQUIRE(rs.port_of_neighbor[i].first != rs.port_of_neighbor[i - 1].first,
                    "parallel links are not supported by the simulator");
    }
    for (int j = 0; j < p; ++j) {
      const int node = topo.node_base(r) + j;
      nics_[node].router = r;
      nics_[node].in_port = deg + j;
    }
  }
  // Wire peer indices: out port i of router r toward neighbor n lands in
  // n's in port that faces r.
  for (int r = 0; r < topo.num_routers(); ++r) {
    const auto& nbrs = topo.neighbors(r);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      const int n = nbrs[i];
      OutPort& op = routers_[r].out_ports[i];
      op.to_node = false;
      op.peer_router = n;
      op.peer_in_port = out_port_toward(n, r);  // symmetric port numbering
      InPort& ip = routers_[r].in_ports[i];
      ip.from_node = false;
      ip.peer_router = n;
      ip.peer_out_port = out_port_toward(n, r);
    }
    const int deg = static_cast<int>(nbrs.size());
    for (int j = 0; j < topo.endpoints_of(r); ++j) {
      OutPort& op = routers_[r].out_ports[deg + j];
      op.to_node = true;
      op.peer_node = topo.node_base(r) + j;
      InPort& ip = routers_[r].in_ports[deg + j];
      ip.from_node = true;
      ip.peer_node = topo.node_base(r) + j;
    }
  }
  // VOQ cells are not allocated up front: a cell is taken from the voq_
  // pool when a packet lands in an empty (in_port, vc, out_port) FIFO and
  // returned when that FIFO empties, so the pool's size follows buffered
  // packets. Only the per-input-VC list heads are sized by the topology.
  std::size_t total_ivcs = 0;
  std::size_t total_ports = 0;
  for (RouterState& rs : routers_) {
    D2NET_REQUIRE(rs.out_ports.size() <= static_cast<std::size_t>(INT16_MAX),
                  "router radix overflows 16-bit port indexing");
    rs.ivc_base = static_cast<std::int32_t>(total_ivcs);
    total_ivcs += rs.in_ports.size() * static_cast<std::size_t>(num_vcs_);
    total_ports += rs.out_ports.size();
    D2NET_REQUIRE(total_ivcs <= static_cast<std::size_t>(INT32_MAX),
                  "input VC count overflows 32-bit indexing");
    for (OutPort& op : rs.out_ports) {
      op.credits.resize(op.to_node ? 0 : num_vcs_);
      op.credits_pending.resize(op.to_node ? 0 : num_vcs_);
    }
  }
  ivc_head_.assign(total_ivcs, -1);
  for (NicState& nic : nics_) {
    nic.credits.resize(num_vcs_);
    nic.credits_pending.resize(num_vcs_);
  }
  router_dead_.assign(routers_.size(), 0);
  table_router_dead_.assign(routers_.size(), 0);

  // Pre-size the engine stores from the topology shape so a run's ramp-up
  // does not grow them one element at a time: at saturation every node has
  // a handful of generator/NIC events in flight and every network port a
  // few pending channel/credit events; packets in flight scale with ports
  // times a small per-VC queue depth. Reported via EngineCapacities.
  const std::size_t q_reserve = static_cast<std::size_t>(topo.num_nodes()) * 8 +
                                total_ports * static_cast<std::size_t>(num_vcs_) * 2;
  const std::size_t p_reserve = static_cast<std::size_t>(topo.num_nodes()) * 4 +
                                total_ports * static_cast<std::size_t>(num_vcs_) * 4;
  queue_.reserve(q_reserve);
  pool_.reserve(p_reserve);
  node_rng_.resize(nics_.size());
  router_rng_.resize(routers_.size());
  node_uid_ctr_.assign(nics_.size(), 0);

  paranoid_ = cfg_.paranoid || paranoid_env();
  digest_enabled_ = cfg_.collect_event_digest;

  metrics_enabled_ = cfg_.metrics.enabled;
  if (metrics_enabled_) {
    D2NET_REQUIRE(cfg_.metrics.sample_period > 0,
                  "metrics sample period must be positive");
    port_instr_.resize(routers_.size());
    for (std::size_t r = 0; r < routers_.size(); ++r) {
      port_instr_[r].resize(routers_[r].out_ports.size());
    }
  }
  reset();
}

void NetworkSim::reset() {
  voq_.clear();
  std::fill(ivc_head_.begin(), ivc_head_.end(), std::int32_t{-1});
  for (RouterState& rs : routers_) {
    for (OutPort& op : rs.out_ports) {
      op.free_at = 0;
      op.queued_bytes = 0;
      op.bytes_sent_window = 0;
      op.ready.clear();
      std::fill(op.credits.begin(), op.credits.end(), vc_buffer_bytes_);
      op.up = true;
      op.phys_up = true;
      op.table_up = true;
      op.epoch = 0;
      std::fill(op.credits_pending.begin(), op.credits_pending.end(), std::int64_t{0});
    }
  }
  for (NicState& nic : nics_) {
    nic.free_at = 0;
    std::fill(nic.credits.begin(), nic.credits.end(), vc_buffer_bytes_);
    nic.pending.clear();
    nic.messages.clear();
    nic.cursor = 0;
    std::fill(nic.credits_pending.begin(), nic.credits_pending.end(), std::int64_t{0});
  }
  std::fill(router_dead_.begin(), router_dead_.end(), std::uint8_t{0});
  std::fill(table_router_dead_.begin(), table_router_dead_.end(), std::uint8_t{0});
  fstats_ = FaultStats{};
  wedged_ = false;
  timed_out_ = false;
  progress_ = 0;
  watch_last_ = 0;
  queue_.clear();
  pool_.recycle_all();
  // Per-entity RNG streams: every run replays the same per-node/per-router
  // draw sequences (see the header comment).
  for (std::size_t n = 0; n < node_rng_.size(); ++n) {
    node_rng_[n].reseed(mix_seed(cfg_.seed, static_cast<std::uint64_t>(n)));
  }
  for (std::size_t r = 0; r < router_rng_.size(); ++r) {
    router_rng_[r].reseed(mix_seed(cfg_.seed, node_rng_.size() + static_cast<std::uint64_t>(r)));
  }
  std::fill(node_uid_ctr_.begin(), node_uid_ctr_.end(), std::uint64_t{0});
  now_ = 0;
  events_processed_ = 0;
  event_digest_ = kDigestOffset;
  ejected_bytes_window_ = 0;
  ejected_per_node_.assign(topo_.num_nodes(), 0);
  packets_injected_ = 0;
  packets_minimal_ = 0;
  hop_sum_ = 0;
  hop_count_ = 0;
  latency_ns_ = LogHistogram{};
  phases_ = RunPhaseBreakdown{};
  exchange_mode_ = false;
  exchange_remaining_ = 0;
  exchange_completion_ = -1;

  if (metrics_enabled_) {
    for (int r = 0; r < topo_.num_routers(); ++r) {
      const RouterState& rs = routers_[r];
      for (std::size_t o = 0; o < rs.out_ports.size(); ++o) {
        PortInstr& pi = port_instr_[r][o];
        pi.stall_since = -1;
        pi.m = PortMetrics{};
        pi.m.router = r;
        pi.m.port = static_cast<int>(o);
        pi.m.peer_router = rs.out_ports[o].to_node ? -1 : rs.out_ports[o].peer_router;
        pi.m.peer_node = rs.out_ports[o].to_node ? rs.out_ports[o].peer_node : -1;
        pi.m.vcs.resize(num_vcs_);
      }
    }
    occupancy_series_.clear();
    registry_ = std::make_unique<MetricsRegistry>();
    ctr_grants_ = &registry_->counter("grants");
    ctr_credit_skips_ = &registry_->counter("credit_blocked_skips");
    ctr_injection_stalls_ = &registry_->counter("injection_credit_stalls");
    ctr_samples_ = &registry_->counter("occupancy_samples");
    hist_carryover_ns_ = &registry_->histogram("carryover_latency_ns");
  }
}

std::int32_t NetworkSim::find_cell(const RouterState& rs, int in_port, int vc,
                                   int out_idx) const {
  std::int32_t ci = ivc_head_[ivc_index(rs, in_port, vc)];
  while (ci >= 0 && voq_[ci].out != out_idx) ci = voq_[ci].next_sib;
  return ci;
}

std::int32_t NetworkSim::cell_for_push(const RouterState& rs, int in_port, int vc,
                                       int out_idx) {
  const std::int32_t found = find_cell(rs, in_port, vc, out_idx);
  if (found >= 0) return found;
  const std::int32_t ci = voq_.alloc(in_port, vc, out_idx);
  std::int32_t& head = ivc_head_[ivc_index(rs, in_port, vc)];
  voq_[ci].next_sib = head;
  head = ci;
  return ci;
}

void NetworkSim::release_cell(const RouterState& rs, std::int32_t ci) {
  const VoqCell& cell = voq_[ci];
  std::int32_t* link = &ivc_head_[ivc_index(rs, cell.in_port, cell.vc)];
  while (*link != ci) {
    D2NET_HOT_ASSERT(*link >= 0, "VOQ cell missing from its input VC list");
    link = &voq_[*link].next_sib;
  }
  *link = cell.next_sib;
  voq_.release(ci);
}

int NetworkSim::out_port_toward(int router, int neighbor) const {
  const auto& map = routers_[router].port_of_neighbor;
  auto it = std::lower_bound(map.begin(), map.end(), std::make_pair(neighbor, -1));
  D2NET_ASSERT(it != map.end() && it->first == neighbor, "no port toward neighbor");
  return it->second;
}

int NetworkSim::out_port_for_packet(int router, const Packet& pkt) const {
  if (pkt.at_destination_router()) {
    const int deg = topo_.network_degree(router);
    const int j = pkt.dst_node - topo_.node_base(router);
    D2NET_ASSERT(j >= 0 && j < topo_.endpoints_of(router), "destination not on this router");
    return deg + j;
  }
  return out_port_toward(router, pkt.route.routers[pkt.hop + 1]);
}

std::int64_t NetworkSim::output_queue_bytes(int router, int next_hop) const {
  return routers_[router].out_ports[out_port_toward(router, next_hop)].queued_bytes;
}

std::int64_t NetworkSim::output_queue_capacity() const { return cfg_.buffer_bytes_per_port; }

std::vector<NetworkSim::ChannelStats> NetworkSim::channel_stats() const {
  std::vector<ChannelStats> out;
  // Normalized like accepted_throughput: a timed-out run only measured up
  // to the simulated time it reached (nothing if it stopped inside the
  // warmup); a wedged or completed run keeps the full window.
  const TimePs stop = timed_out_ ? std::max(now_, window_start_) : window_end_;
  const double window_bytes =
      static_cast<double>(stop - window_start_) / static_cast<double>(cfg_.ps_per_byte);
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const auto& nbrs = topo_.neighbors(r);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      const OutPort& op = routers_[r].out_ports[i];
      ChannelStats cs;
      cs.router = r;
      cs.neighbor = nbrs[i];
      cs.bytes = op.bytes_sent_window;
      cs.utilization =
          window_bytes > 0 ? static_cast<double>(op.bytes_sent_window) / window_bytes : 0.0;
      out.push_back(cs);
    }
  }
  return out;
}

bool NetworkSim::start_injection(int node, int dst, int size, TimePs gen_time,
                                 TimePs now) {
  NicState& nic = nics_[node];
  const int src_router = nic.router;
  const int dst_router = topo_.router_of_node(dst);

  // Route directly into the pooled packet's Route so its inline storage is
  // reused across packets (no per-packet allocation in steady state).
  const int pkt_id = pool_.alloc();
  Packet& pkt = pool_[pkt_id];
  Route& route = pkt.route;
  if (dst_router == src_router) {
    route.routers.assign(1, static_cast<std::uint16_t>(src_router));
    route.vcs.clear();
    route.intermediate_pos = -1;
  } else {
    routing_->route_into(src_router, dst_router, node_rng_[node], route);
    if (faults_enabled_ && route.routers.empty()) {
      // Destination currently unreachable: the NIC head-of-line blocks and
      // keeps retrying (next tick / credit return) until the network heals
      // or the watchdog declares the run wedged.
      pool_.release(pkt_id);
      return false;
    }
  }
  int vc0 = route.vcs.empty() ? 0 : route.vcs.front();
  // Fault-degraded paths can be longer than the healthy provisioning
  // assumed; collapse overflow onto the top VC (watchdog guards the
  // resulting deadlock risk).
  if (faults_enabled_ && vc0 >= num_vcs_) vc0 = num_vcs_ - 1;
  if (nic.credits[vc0] < size) {
    pool_.release(pkt_id);
    if (metrics_enabled_) ctr_injection_stalls_->add();
    return false;  // stall; retried on credit return
  }

  pkt.dst_node = dst;
  pkt.size = size;
  pkt.gen_time = gen_time;
  pkt.inject_time = now;
  pkt.hop = 0;
  pkt.retries = 0;
  pkt.misroutes = 0;
  pkt.link_epoch = 0;
  // Pool-independent identity, assigned once per successful injection:
  // ordering keys and the digest use it instead of the pool slot.
  pkt.uid = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 34) |
            node_uid_ctr_[node]++;

  nic.credits[vc0] -= size;
  const TimePs ser = static_cast<TimePs>(size) * cfg_.ps_per_byte;
  nic.free_at = now + ser;
  queue_.push(nic.free_at, EventType::kNicFree, node);
  // Cut-through: the router sees the packet when its head lands; the
  // eligibility delay (router latency > serialization at these parameters)
  // guarantees the tail is in the buffer before any forwarding decision.
  const TimePs arrival_ser = cfg_.cut_through ? 0 : ser;
  queue_.push_keyed(now + arrival_ser + cfg_.link_latency,
                    pack_packet_okey(EventType::kArriveRouter, pkt.uid),
                    EventType::kArriveRouter, pkt_id, src_router, nic.in_port, vc0);
  ++progress_;
  ++packets_injected_;
  if (pkt.route.minimal()) ++packets_minimal_;
  ++(gen_time < window_start_ ? phases_.injected_warmup : phases_.injected_measured);
  return true;
}

void NetworkSim::try_inject(int node, TimePs now) {
  NicState& nic = nics_[node];
  if (nic.free_at > now) return;  // kNicFree will retry

  if (!nic.pending.empty()) {
    // Open loop: destination drawn per packet at injection time.
    const TimePs gen_time = nic.pending.front();
    const int dst = pattern_->dest(node, node_rng_[node]);
    if (start_injection(node, dst, cfg_.packet_bytes, gen_time, now)) {
      nic.pending.pop();
    }
    return;
  }

  if (exchange_mode_ && !nic.messages.empty()) {
    if (nic.cursor >= nic.messages.size()) nic.cursor = 0;
    ExchangeMessage& m = nic.messages[nic.cursor];
    const int chunk =
        static_cast<int>(std::min<std::int64_t>(m.bytes, cfg_.packet_bytes));
    if (!start_injection(node, m.dst_node, chunk, now, now)) {
      return;
    }
    m.bytes -= chunk;
    if (m.bytes == 0) {
      nic.messages.erase(nic.messages.begin() + static_cast<std::ptrdiff_t>(nic.cursor));
      if (nic.cursor >= nic.messages.size()) nic.cursor = 0;
    } else if (plan_order_ == MessageOrder::kRoundRobin) {
      // Round-robin interleaves open messages; sequential drains in order.
      nic.cursor = (nic.cursor + 1) % nic.messages.size();
    }
  }
}

void NetworkSim::handle_arrive_router(int pkt_id, int router, int in_port,
                                      int vc, TimePs now) {
  RouterState& rs = routers_[router];
  // The VOQ lookup below starts a chain of dependent loads at this input
  // VC's list head; fetching it now overlaps the miss with the checks and
  // the next-hop search. At SF q=29 the live cells (13.6 MB at peak) far
  // outgrow L2, and that chain dominates the handler.
  __builtin_prefetch(&ivc_head_[ivc_index(rs, in_port, vc)]);
  if (faults_enabled_) {
    const InPort& ipc = rs.in_ports[in_port];
    bool destroyed = router_dead_[router] != 0;
    if (!destroyed && !ipc.from_node) {
      // Destruction is *physical*: with propagation a router may grant onto
      // a wire it still believes up — the packet dies here, at arrival,
      // where the cut (phys_up / epoch) is authoritative.
      const OutPort& sender = routers_[ipc.peer_router].out_ports[ipc.peer_out_port];
      destroyed = !sender.phys_up || router_dead_[ipc.peer_router] != 0 ||
                  pool_[pkt_id].link_epoch != sender.epoch;
    }
    if (destroyed) {
      // The wire was cut (or a router died) while the packet was in
      // flight: it never lands in the input buffer and no credit moves;
      // the sender's lost credits are recreated by the link-up resync.
      drop_packet(pkt_id, now);
      return;
    }
  }
  int out_idx = out_port_for_packet(router, pool_[pkt_id]);
  if (faults_enabled_ && out_port_dead(router, out_idx)) {
    // Arrived intact but the planned next link is gone: salvage onto the
    // rebuilt table, or free the buffer (credit upstream) and drop/retry.
    Packet& pkt = pool_[pkt_id];
    if (salvage_route(pkt, router)) {
      ++fstats_.reroutes;
      out_idx = out_port_for_packet(router, pkt);
    } else {
      return_input_credit(router, in_port, vc, pkt.size, now);
      drop_packet(pkt_id, now);
      return;
    }
  }
  const int size = pool_[pkt_id].size;
  rs.out_ports[out_idx].queued_bytes += size;
  const std::int32_t ci = cell_for_push(rs, in_port, vc, out_idx);
  if (voq_push(pool_, voq_[ci], pkt_id, now + cfg_.router_latency)) {
    queue_.push(now + cfg_.router_latency, EventType::kHeadEligible, router, in_port, vc, out_idx);
  }
}

void NetworkSim::handle_head_eligible(int router, int in_port, int vc,
                                      int out_idx, TimePs now) {
  RouterState& rs = routers_[router];
  const std::int32_t ci = find_cell(rs, in_port, vc, out_idx);
  // Stale event: the FIFO emptied since, or its head already sits in the
  // ready list (head granted and successor rescheduled).
  if (ci < 0 || voq_[ci].in_ready) return;
  VoqCell& cell = voq_[ci];
  const TimePs eligible_at = pool_[cell.head].eligible_at;
  if (eligible_at > now) {
    // Defensive: never strand a head — re-arm at its eligibility time.
    queue_.push(eligible_at, EventType::kHeadEligible, router, in_port, vc, out_idx);
    return;
  }
  cell.in_ready = 1;
  ready_append(rs.out_ports[out_idx].ready, voq_, ci);
  try_grant(router, out_idx, now);
}

void NetworkSim::try_grant(int router, int out_idx, TimePs now) {
  RouterState& rs = routers_[router];
  OutPort& out = rs.out_ports[out_idx];
  if (out.free_at > now) return;  // kChannelFree retries
  if (faults_enabled_ && out_port_dead(router, out_idx)) return;  // link-up kicks again

  // Round-robin over the ready list: pop each candidate off the head; a
  // skipped (credit-blocked) entry re-appends at the tail, which is exactly
  // the erase-then-rotate order of the old vector arbitration. The budget
  // bounds the scan to one pass over the entries present on entry.
  bool credit_blocked = false;
  int budget = out.ready.count;
  while (budget-- > 0) {
    const std::int32_t ci = ready_pop(out.ready, voq_);
    VoqCell& cell = voq_[ci];
    D2NET_HOT_ASSERT(cell.head >= 0 && cell.in_ready, "ready list out of sync");
    const int pkt_id = cell.head;
    Packet& pkt = pool_[pkt_id];
    int vc_next = 0;
    if (!out.to_node) {
      vc_next = pkt.vc_at_hop();
      if (faults_enabled_ && vc_next >= num_vcs_) vc_next = num_vcs_ - 1;
      if (out.credits[vc_next] < pkt.size) {  // blocked on credit
        credit_blocked = true;
        if (metrics_enabled_) ctr_credit_skips_->add();
        ready_append(out.ready, voq_, ci);
        continue;
      }
    }

    // Grant: the cell leaves the ready list (already popped) and the packet
    // leaves its FIFO.
    const int in_port = cell.in_port;
    const int in_vc = cell.vc;
    cell.in_ready = 0;
    voq_pop(pool_, cell);
    // An emptied cell is unlinked at the end of the grant by walking its
    // input VC's list; start that walk's first load now (see
    // handle_arrive_router).
    if (cell.head < 0) __builtin_prefetch(&ivc_head_[ivc_index(rs, in_port, in_vc)]);
    out.queued_bytes -= pkt.size;

    const TimePs ser = static_cast<TimePs>(pkt.size) * cfg_.ps_per_byte;
    out.free_at = now + ser;
    if (now >= window_start_ && now <= window_end_) out.bytes_sent_window += pkt.size;
    queue_.push(out.free_at, EventType::kChannelFree, router, out_idx);

    if (metrics_enabled_) {
      PortInstr& pi = port_instr_[router][out_idx];
      if (pi.stall_since >= 0) {
        pi.m.credit_stall_ps += now - pi.stall_since;
        pi.stall_since = -1;
      }
      ctr_grants_->add();
      if (now >= window_start_ && now <= window_end_) {
        ++pi.m.packets_forwarded;
        pi.m.bytes_forwarded += pkt.size;
        VcMetrics& vm = pi.m.vcs[in_vc];
        ++vm.packets;
        vm.bytes += pkt.size;
        ++(pkt.route.minimal() ? vm.minimal_packets : vm.indirect_packets);
      }
    }

    // Return the freed input-buffer credit upstream.
    return_input_credit(router, in_port, in_vc, pkt.size, now);

    if (out.to_node) {
      // Delivery completes when the tail reaches the NIC, regardless of
      // forwarding mode.
      queue_.push_keyed(now + ser + cfg_.link_latency,
                        pack_packet_okey(EventType::kArriveNode, pkt.uid),
                        EventType::kArriveNode, pkt_id, out.peer_node);
    } else {
      out.credits[vc_next] -= pkt.size;
      if (faults_enabled_) pkt.link_epoch = out.epoch;
      pkt.hop += 1;
      const TimePs arrival_ser = cfg_.cut_through ? 0 : ser;
      queue_.push_keyed(now + arrival_ser + cfg_.link_latency,
                        pack_packet_okey(EventType::kArriveRouter, pkt.uid),
                        EventType::kArriveRouter, pkt_id, out.peer_router, out.peer_in_port,
                        vc_next);
    }
    ++progress_;

    // Wake the new head of the FIFO, or return its emptied cell.
    if (cell.head >= 0) {
      queue_.push(std::max(now, pool_[cell.head].eligible_at),
                  EventType::kHeadEligible, router, in_port, in_vc, out_idx);
    } else {
      release_cell(rs, ci);
    }
    return;
  }
  // Nothing granted: if the idle channel has eligible heads blocked purely
  // on downstream credit, open (or keep open) this port's stall interval.
  if (metrics_enabled_ && credit_blocked) {
    PortInstr& pi = port_instr_[router][out_idx];
    if (pi.stall_since < 0) pi.stall_since = now;
  }
}

void NetworkSim::handle_arrive_node(int pkt_id, TimePs now) {
  const Packet& pkt = pool_[pkt_id];
  if (now < window_start_) {
    ++phases_.delivered_warmup;
  } else if (now <= window_end_) {
    // Throughput counts every in-window ejection (steady-state byte flow);
    // the latency/hop distributions count only packets *generated* inside
    // the window — a packet born during warmup carries exactly the
    // queueing transient the warmup exists to discard.
    ejected_bytes_window_ += pkt.size;
    ejected_per_node_[pkt.dst_node] += pkt.size;
    if (pkt.gen_time >= window_start_) {
      ++phases_.delivered_measured;
      latency_ns_.add(static_cast<std::int64_t>(to_ns(now - pkt.gen_time)));
      hop_sum_ += pkt.route.hops();
      ++hop_count_;
    } else {
      ++phases_.delivered_carryover;
      if (metrics_enabled_) {
        hist_carryover_ns_->add(static_cast<std::int64_t>(to_ns(now - pkt.gen_time)));
      }
    }
    if (trace_ != nullptr) {
      trace_->record({pkt.src_node(), pkt.dst_node, pkt.size, pkt.gen_time, pkt.inject_time,
                      now, pkt.route.hops(), pkt.route.minimal()});
    }
  }
  if (exchange_mode_) {
    exchange_remaining_ -= pkt.size;
    if (exchange_remaining_ == 0) exchange_completion_ = now;
  }
  if (cfg_.fault.recovery_sample > 0) {
    const auto bucket = static_cast<std::size_t>(now / cfg_.fault.recovery_sample);
    if (bucket >= fstats_.delivered_bytes_buckets.size()) {
      fstats_.delivered_bytes_buckets.resize(bucket + 1, 0);
    }
    fstats_.delivered_bytes_buckets[bucket] += pkt.size;
  }
  ++progress_;
  pool_.release(pkt_id);
}

void NetworkSim::dispatch(const Event& e) {
  switch (e.type) {
    case EventType::kGenerate: {
      if (e.time >= gen_end_) break;
      nics_[e.a].pending.push(e.time);
      try_inject(e.a, e.time);
      // Poisson arrivals: exponential inter-arrival with mean pkt_time/load.
      const double mean =
          static_cast<double>(cfg_.packet_serialization()) / std::max(load_, 1e-9);
      const double u = 1.0 - node_rng_[e.a].uniform();  // (0, 1]
      const auto dt = static_cast<TimePs>(-std::log(u) * mean) + 1;
      queue_.push(e.time + dt, EventType::kGenerate, e.a);
      break;
    }
    case EventType::kNicFree:
      try_inject(e.a, e.time);
      break;
    case EventType::kArriveRouter:
      handle_arrive_router(e.a, e.b, e.c, e.d, e.time);
      break;
    case EventType::kHeadEligible:
      handle_head_eligible(e.a, e.b, e.c, e.d, e.time);
      break;
    case EventType::kChannelFree:
      try_grant(e.a, e.b, e.time);
      break;
    case EventType::kCreditToRouter:
      routers_[e.a].out_ports[e.b].credits[e.c] += e.d;
      if (faults_enabled_) {
        routers_[e.a].out_ports[e.b].credits_pending[e.c] -= e.d;
        ++progress_;
      }
      try_grant(e.a, e.b, e.time);
      break;
    case EventType::kCreditToNic:
      nics_[e.a].credits[e.c] += e.d;
      if (faults_enabled_) {
        nics_[e.a].credits_pending[e.c] -= e.d;
        ++progress_;
      }
      try_inject(e.a, e.time);
      break;
    case EventType::kArriveNode:
      handle_arrive_node(e.a, e.time);
      break;
    case EventType::kFault:
      apply_fault(e.a, e.time);
      // Fault application rewires credits and drains VOQs wholesale — the
      // exact transitions the paranoid audit exists to police.
      if (paranoid_) self_audit("apply_fault");
      break;
    case EventType::kFaultDetect:
      // Control plane: the router's missed-credit timeout.
      handle_fault_detect(e.a, e.d, e.time);
      if (paranoid_) self_audit("fault_detect");
      break;
    case EventType::kFloodArrive:
      handle_flood_arrive(e.a, e.d, e.time);
      if (paranoid_) self_audit("flood_arrive");
      break;
    case EventType::kRetryInject:
      handle_retry(e.a, e.time);
      break;
    case EventType::kMetricsSample:
    case EventType::kWatchdog:
      // Handled in run_until (excluded from events_processed).
      break;
  }
}

void NetworkSim::handle_metrics_sample(TimePs now) {
  // Read-only over simulation state: records queue depths and schedules
  // the next tick. Must not touch the RNG or any router/NIC state.
  std::int64_t total = 0;
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const RouterState& rs = routers_[r];
    for (std::size_t o = 0; o < rs.out_ports.size(); ++o) {
      const std::int64_t q = rs.out_ports[o].queued_bytes;
      port_instr_[r][o].m.occupancy_bytes.add(static_cast<double>(q));
      total += q;
    }
  }
  occupancy_series_.push_back({now, total});
  ctr_samples_->add();
  const TimePs next = now + cfg_.metrics.sample_period;
  if (next <= window_end_) queue_.push(next, EventType::kMetricsSample);
}

// --- fault machinery (inert with an empty schedule) ---

bool NetworkSim::out_port_dead(int router, int out_idx) const {
  if (router_dead_[router]) return true;
  const OutPort& op = routers_[router].out_ports[out_idx];
  if (op.to_node) return false;
  if (!op.up) return true;
  // Oracle mode may consult the peer's physical state directly; with
  // propagation the owning router acts only on its *believed* view — a
  // neighbor's death is unknown here until detected or flooded, and packets
  // granted toward it meanwhile die physically on arrival.
  return !prop_enabled_ && router_dead_[op.peer_router] != 0;
}

bool NetworkSim::link_admitted(int a, int b) const {
  // The shared table's incremental invalidation is only sound when its
  // filter changes one element per update_link call. Oracle mode satisfies
  // that by refreshing inside apply_fault; propagation refreshes at each
  // update's *convergence*, so the filter must be the converged state the
  // table has been walked through (table_up / table_router_dead_), not the
  // believed `up` flags, which run ahead of the refresh sequence.
  if (prop_enabled_) {
    if (table_router_dead_[a] || table_router_dead_[b]) return false;
    return routers_[a].out_ports[out_port_toward(a, b)].table_up;
  }
  if (router_dead_[a] || router_dead_[b]) return false;
  return routers_[a].out_ports[out_port_toward(a, b)].up;
}

void NetworkSim::refresh_fault_table(int u, int v) {
  if (!cfg_.fault.reroute || fault_table_ == nullptr) return;
  const LinkFilter alive = [this](int a, int b) { return link_admitted(a, b); };
  if (u >= 0) {
    fault_table_->update_link(topo_, alive, u, v);
  } else {
    fault_table_->rebuild(topo_, alive);
  }
  fstats_.unreachable_pairs =
      std::max(fstats_.unreachable_pairs, fault_table_->unreachable_pairs());
}

bool NetworkSim::salvage_route(Packet& pkt, int router) {
  if (cfg_.fault.recovery != FaultRecovery::kSalvage || fault_table_ == nullptr) {
    return false;
  }
  const int dst_router = topo_.router_of_node(pkt.dst_node);
  D2NET_ASSERT(router != dst_router, "salvage at the destination router");
  const int dist = fault_table_->distance(router, dst_router);
  if (dist < 0) return false;                            // disconnected
  if (pkt.hop + dist > hop_limit_) return false;         // livelock guard
  // Keep the traversed prefix, replace the tail with a fresh shortest path
  // over the surviving links. VCs continue hop-indexed, collapsed onto the
  // top VC once the stretched path exceeds the healthy provisioning.
  Route& route = pkt.route;
  D2NET_ASSERT(route.routers[static_cast<std::size_t>(pkt.hop)] == router,
               "salvage at a router the packet does not occupy");
  const auto finish_tail = [&] {
    if (route.intermediate_pos > pkt.hop) route.intermediate_pos = pkt.hop;
    const int hops = route.hops();
    route.vcs.resize(static_cast<std::size_t>(hops));
    for (int i = pkt.hop; i < hops; ++i) {
      route.vcs[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(std::min(i, num_vcs_ - 1));
    }
  };
  if (!prop_enabled_) {
    route.routers.resize(static_cast<std::size_t>(pkt.hop) + 1);
    fault_table_->sample_path_append(router, dst_router, router_rng_[router],
                                     route.routers);
    finish_tail();
    return true;
  }
  // Propagation: the shared table only reflects *converged* updates, so a
  // sampled path may cross links this router already believes dead.
  // Escalate — resample a bounded number of times against the local view,
  // then fall back to a local-greedy detour on the misroute budget.
  for (int attempt = 0; attempt < kSalvageSamples; ++attempt) {
    route.routers.resize(static_cast<std::size_t>(pkt.hop) + 1);
    fault_table_->sample_path_append(router, dst_router, router_rng_[router],
                                     route.routers);
    if (route_believed_alive(pkt, router, pkt.hop)) {
      finish_tail();
      return true;
    }
  }
  if (misroute_detour(pkt, router)) {
    finish_tail();
    ++fstats_.convergence.misroutes;
    return true;
  }
  if (pkt.misroutes >= cfg_.fault.misroute_limit) ++fstats_.convergence.budget_drops;
  return false;
}

bool NetworkSim::route_believed_alive(const Packet& pkt, int router, int from_hop) const {
  const auto& hops = pkt.route.routers;
  for (std::size_t i = static_cast<std::size_t>(from_hop); i + 1 < hops.size(); ++i) {
    if (!view_.believes_link_alive(router, hops[i], hops[i + 1])) return false;
  }
  return true;
}

bool NetworkSim::misroute_detour(Packet& pkt, int router) {
  if (pkt.misroutes >= cfg_.fault.misroute_limit) return false;
  const auto& nbrs = topo_.neighbors(router);
  const int deg = static_cast<int>(nbrs.size());
  if (deg == 0) return false;
  const int dst_router = topo_.router_of_node(pkt.dst_node);
  // Round-robin from a random offset over believed-live neighbors; the RNG
  // stream is router-local, so unrelated events cannot shift the pick.
  const int start = std::min(
      deg - 1, static_cast<int>(router_rng_[router].uniform() * static_cast<double>(deg)));
  for (int k = 0; k < deg; ++k) {
    const int i = (start + k) % deg;
    const int m = nbrs[static_cast<std::size_t>(i)];
    const OutPort& op = routers_[router].out_ports[static_cast<std::size_t>(i)];
    if (!op.up) continue;  // believed dead locally
    if (!view_.believes_router_alive(router, m)) continue;
    const int dist = m == dst_router ? 0 : fault_table_->distance(m, dst_router);
    if (dist < 0) continue;
    if (pkt.hop + 1 + dist > hop_limit_) continue;  // TTL-style loop guard
    Route& route = pkt.route;
    route.routers.resize(static_cast<std::size_t>(pkt.hop) + 1);
    route.routers.push_back(m);
    if (m != dst_router) {
      fault_table_->sample_path_append(m, dst_router, router_rng_[router], route.routers);
    }
    ++pkt.misroutes;
    return true;
  }
  return false;
}

void NetworkSim::return_input_credit(int router, int in_port, int vc, int bytes,
                                     TimePs now) {
  const InPort& ip = routers_[router].in_ports[in_port];
  if (ip.from_node) {
    if (faults_enabled_) {
      if (router_dead_[router]) return;  // the injection wire died with the router
      nics_[ip.peer_node].credits_pending[vc] += bytes;
    }
    queue_.push(now + cfg_.link_latency, EventType::kCreditToNic, ip.peer_node, 0, vc, bytes);
  } else {
    if (faults_enabled_) {
      const OutPort& peer = routers_[ip.peer_router].out_ports[ip.peer_out_port];
      // A *physically* cut reverse wire carries no credit (whatever anyone
      // believes); the link-up resync recreates it.
      if (!peer.phys_up || router_dead_[ip.peer_router] || router_dead_[router]) return;
    }
    if (faults_enabled_) {
      routers_[ip.peer_router].out_ports[ip.peer_out_port].credits_pending[vc] += bytes;
    }
    queue_.push(now + cfg_.link_latency, EventType::kCreditToRouter, ip.peer_router,
                ip.peer_out_port, vc, bytes);
  }
}

void NetworkSim::drop_packet(int pkt_id, TimePs now) {
  ++fstats_.packets_dropped;
  Packet& pkt = pool_[pkt_id];
  if (cfg_.fault.recovery != FaultRecovery::kNone && pkt.retries < cfg_.fault.max_retries) {
    const TimePs backoff = cfg_.fault.retry_backoff * (TimePs{1} << pkt.retries);
    ++pkt.retries;
    queue_.push_keyed(now + backoff, pack_packet_okey(EventType::kRetryInject, pkt.uid),
                      EventType::kRetryInject, pkt_id);
  } else {
    ++fstats_.packets_lost;
    pool_.release(pkt_id);
  }
}

void NetworkSim::handle_retry(int pkt_id, TimePs now) {
  ++progress_;
  Packet& pkt = pool_[pkt_id];
  const int src_node = pkt.src_node();
  NicState& nic = nics_[src_node];
  const int src_router = nic.router;
  const int dst_router = topo_.router_of_node(pkt.dst_node);
  bool ok = nic.free_at <= now && !router_dead_[src_router];
  int vc0 = 0;
  if (ok) {
    if (dst_router == src_router) {
      pkt.route.routers.assign(1, static_cast<std::uint16_t>(src_router));
      pkt.route.vcs.clear();
      pkt.route.intermediate_pos = -1;
    } else {
      routing_->route_into(src_router, dst_router, node_rng_[src_node], pkt.route);
      ok = !pkt.route.routers.empty();
    }
    if (ok) {
      vc0 = pkt.route.vcs.empty() ? 0 : pkt.route.vcs.front();
      if (vc0 >= num_vcs_) vc0 = num_vcs_ - 1;
      ok = nic.credits[vc0] >= pkt.size;
    }
  }
  if (!ok) {
    // NIC busy, destination unreachable, or no credit: burn one attempt and
    // back off again, or give the packet up for good.
    if (pkt.retries < cfg_.fault.max_retries) {
      const TimePs backoff = cfg_.fault.retry_backoff * (TimePs{1} << pkt.retries);
      ++pkt.retries;
      queue_.push_keyed(now + backoff, pack_packet_okey(EventType::kRetryInject, pkt.uid),
                        EventType::kRetryInject, pkt_id);
    } else {
      ++fstats_.packets_lost;
      pool_.release(pkt_id);
    }
    return;
  }
  pkt.hop = 0;
  pkt.inject_time = now;
  pkt.link_epoch = 0;
  pkt.misroutes = 0;  // the detour budget is per delivery attempt
  nic.credits[vc0] -= pkt.size;
  const TimePs ser = static_cast<TimePs>(pkt.size) * cfg_.ps_per_byte;
  nic.free_at = now + ser;
  queue_.push(nic.free_at, EventType::kNicFree, src_node);
  const TimePs arrival_ser = cfg_.cut_through ? 0 : ser;
  queue_.push_keyed(now + arrival_ser + cfg_.link_latency,
                    pack_packet_okey(EventType::kArriveRouter, pkt.uid),
                    EventType::kArriveRouter, pkt_id, src_router, nic.in_port, vc0);
  ++fstats_.packets_retried;
}

void NetworkSim::drain_out_port(int router, int out_idx, TimePs now, bool credit_returns,
                                bool allow_salvage) {
  RouterState& rs = routers_[router];
  OutPort& op = rs.out_ports[out_idx];
  for (int ipx = 0; ipx < static_cast<int>(rs.in_ports.size()); ++ipx) {
    for (int vc = 0; vc < num_vcs_; ++vc) {
      const std::int32_t ci = find_cell(rs, ipx, vc, out_idx);
      if (ci < 0) continue;
      // Salvage re-pushes into sibling cells of this input VC and may grow
      // the pool, so the drained cell is re-indexed on every pop.
      while (voq_[ci].head >= 0) {
        const int pkt_id = voq_pop(pool_, voq_[ci]);
        Packet& pkt = pool_[pkt_id];
        if (allow_salvage && salvage_route(pkt, router)) {
          // The packet stays in its input buffer, re-queued for the out
          // port of its fresh route after a re-decision latency.
          const int new_out = out_port_for_packet(router, pkt);
          D2NET_ASSERT(new_out != out_idx, "salvage re-chose the dead port");
          ++fstats_.reroutes;
          const std::int32_t fresh = cell_for_push(rs, ipx, vc, new_out);
          rs.out_ports[new_out].queued_bytes += pkt.size;
          if (voq_push(pool_, voq_[fresh], pkt_id, now + cfg_.router_latency)) {
            queue_.push(now + cfg_.router_latency, EventType::kHeadEligible, router, ipx,
                        vc, new_out);
          }
        } else {
          if (credit_returns) return_input_credit(router, ipx, vc, pkt.size, now);
          drop_packet(pkt_id, now);
        }
      }
      // The port's ready list is cleared wholesale below, so the cell can
      // go back to the pool whether or not it was registered there.
      release_cell(rs, ci);
    }
  }
  op.ready.clear();
  op.queued_bytes = 0;
}

std::int64_t NetworkSim::input_vc_bytes(const RouterState& rs, int in_port, int vc) const {
  std::int64_t occupied = 0;
  for (std::int32_t ci = ivc_head_[ivc_index(rs, in_port, vc)]; ci >= 0;
       ci = voq_[ci].next_sib) {
    for (int id = voq_[ci].head; id >= 0; id = pool_[id].vnext) occupied += pool_[id].size;
  }
  return occupied;
}

void NetworkSim::resync_link_credits(int u, int v) {
  OutPort& op = routers_[u].out_ports[out_port_toward(u, v)];
  const RouterState& peer = routers_[v];
  for (int vc = 0; vc < num_vcs_; ++vc) {
    op.credits[vc] = vc_buffer_bytes_ - input_vc_bytes(peer, op.peer_in_port, vc) -
                     op.credits_pending[vc];
  }
}

void NetworkSim::resync_nic_credits(int node) {
  NicState& nic = nics_[node];
  const RouterState& rs = routers_[nic.router];
  for (int vc = 0; vc < num_vcs_; ++vc) {
    nic.credits[vc] =
        vc_buffer_bytes_ - input_vc_bytes(rs, nic.in_port, vc) - nic.credits_pending[vc];
  }
}

void NetworkSim::schedule_detections(int idx, TimePs now) {
  // Each physically-attached live router arms a missed-credit timeout: it
  // notices the change `detection_delay` after the wire actually flips.
  const FaultEvent& f = cfg_.fault.schedule[static_cast<std::size_t>(idx)];
  const TimePs t = now + cfg_.fault.detection_delay;
  auto detect = [&](int r) {
    if (router_dead_[r]) return;
    queue_.push(t, EventType::kFaultDetect, r, 0, 0, idx);
  };
  switch (f.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      detect(f.a);
      detect(f.b);
      break;
    case FaultKind::kRouterDown:
      for (int n : topo_.neighbors(f.a)) detect(n);
      break;
    case FaultKind::kRouterUp:
      // The revived router knows about itself; neighbors see credits resume.
      detect(f.a);
      for (int n : topo_.neighbors(f.a)) detect(n);
      break;
  }
}

void NetworkSim::handle_fault_detect(int router, int idx, TimePs now) {
  if (router_dead_[router]) return;  // died between the fault and the timeout
  learn_update(router, idx, /*detection=*/true, now);
}

void NetworkSim::handle_flood_arrive(int router, int idx, TimePs now) {
  if (router_dead_[router]) return;
  learn_update(router, idx, /*detection=*/false, now);
}

void NetworkSim::learn_update(int router, int idx, bool detection, TimePs now) {
  if (!view_.learn(router, idx)) return;  // duplicate flood / already detected
  ++progress_;  // the control plane moving counts as forward progress
  ConvergenceStats& cv = fstats_.convergence;
  const LinkStateUpdate& u = view_.update(idx);
  const TimePs lag = now - u.phys_time;
  ++cv.routers_reached;
  cv.epoch_lag_sum += lag;
  cv.epoch_lag_max = std::max(cv.epoch_lag_max, lag);
  if (detection) {
    ++cv.detections;
    cv.detection_latency_sum += lag;
    cv.detection_latency_max = std::max(cv.detection_latency_max, lag);
  }
  apply_believed_ports(router, now);
  if (u.v < 0 && u.alive && u.u == router) {
    // A revived router learning its own up-update brings its endpoints back
    // online (the oracle path does this inside apply_fault).
    for (int j = 0; j < topo_.endpoints_of(router); ++j) {
      const int node = topo_.node_base(router) + j;
      resync_nic_credits(node);
      try_inject(node, now);
    }
  }
  // Standard link-state flooding: only the first learning re-floods, so each
  // update crosses every live wire at most twice.
  const RouterState& rs = routers_[router];
  for (int i = 0; i < static_cast<int>(topo_.neighbors(router).size()); ++i) {
    const OutPort& op = rs.out_ports[i];
    if (!op.phys_up || router_dead_[op.peer_router]) continue;
    ++cv.flood_messages;
    queue_.push(now + cfg_.link_latency + cfg_.fault.flood_process,
                EventType::kFloodArrive, op.peer_router, 0, 0, idx);
  }
  if (view_.converged(idx)) {
    ++cv.converged;
    cv.consistency_time_sum += lag;
    cv.consistency_time_max = std::max(cv.consistency_time_max, lag);
    // Every live router now agrees with the physical truth about this
    // update, so the shared routing table may fold it in: salvage sampling
    // stops proposing the dead element without consulting local views. The
    // converged-state flags advance in lock-step with the refresh sequence
    // (see link_admitted).
    if (u.v < 0) {
      table_router_dead_[u.u] = u.alive ? 0 : 1;
      refresh_fault_table(-1, -1);
    } else {
      routers_[u.u].out_ports[out_port_toward(u.u, u.v)].table_up = u.alive;
      routers_[u.v].out_ports[out_port_toward(u.v, u.u)].table_up = u.alive;
      refresh_fault_table(u.u, u.v);
    }
  }
}

void NetworkSim::apply_believed_ports(int router, TimePs now) {
  // Reconciles the router's granting state (`up`) with what it now
  // believes, mirroring the oracle apply_fault transitions one router at a
  // time: newly-believed-dead ports drain (salvage with the *local* view),
  // newly-believed-alive ports resync credits and resume granting.
  RouterState& rs = routers_[router];
  const auto& nbrs = topo_.neighbors(router);
  for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
    const int peer = nbrs[i];
    OutPort& op = rs.out_ports[i];
    const bool want =
        view_.believes_link_alive(router, router, peer) && view_.believes_router_alive(router, peer);
    if (op.up == want) continue;
    op.up = want;
    if (!want) {
      drain_out_port(router, i, now, /*credit_returns=*/true, /*allow_salvage=*/true);
    } else if (op.phys_up && !router_dead_[router] && !router_dead_[peer]) {
      resync_link_credits(router, peer);
      try_grant(router, i, now);
    }
  }
}

void NetworkSim::apply_fault(int idx, TimePs now) {
  const FaultEvent& f = cfg_.fault.schedule[static_cast<std::size_t>(idx)];
  // Live routers at the instant the fault physically applies; an update is
  // converged once they all learned it (dead routers can't participate).
  auto live_routers = [&]() {
    int live = 0;
    for (int r = 0; r < topo_.num_routers(); ++r) {
      if (!router_dead_[r]) ++live;
    }
    return live;
  };
  switch (f.kind) {
    case FaultKind::kLinkDown: {
      D2NET_REQUIRE(f.a >= 0 && f.a < topo_.num_routers() && f.b >= 0 &&
                        f.b < topo_.num_routers(),
                    "link fault endpoint out of range");
      const int pu = out_port_toward(f.a, f.b);  // asserts adjacency
      const int pv = out_port_toward(f.b, f.a);
      OutPort& uv = routers_[f.a].out_ports[pu];
      OutPort& vu = routers_[f.b].out_ports[pv];
      if (!uv.phys_up) return;  // idempotent
      ++fstats_.faults_applied;
      ++progress_;
      uv.phys_up = vu.phys_up = false;
      ++uv.epoch;  // destroys both directions' in-flight traffic
      ++vu.epoch;
      if (prop_enabled_) {
        // Routing state is untouched here: the endpoints keep granting onto
        // the dead wire (grants die at arrival via the epoch/phys check)
        // until their detection timeouts fire.
        view_.register_update(idx, f.a, f.b, /*alive=*/false, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        uv.up = vu.up = false;
        refresh_fault_table(f.a, f.b);  // before draining, so salvage avoids the cut
        drain_out_port(f.a, pu, now, /*credit_returns=*/true, /*allow_salvage=*/true);
        drain_out_port(f.b, pv, now, /*credit_returns=*/true, /*allow_salvage=*/true);
      }
      break;
    }
    case FaultKind::kLinkUp: {
      D2NET_REQUIRE(f.a >= 0 && f.a < topo_.num_routers() && f.b >= 0 &&
                        f.b < topo_.num_routers(),
                    "link fault endpoint out of range");
      const int pu = out_port_toward(f.a, f.b);
      const int pv = out_port_toward(f.b, f.a);
      OutPort& uv = routers_[f.a].out_ports[pu];
      OutPort& vu = routers_[f.b].out_ports[pv];
      if (uv.phys_up) return;
      ++fstats_.faults_applied;
      ++progress_;
      uv.phys_up = vu.phys_up = true;
      if (prop_enabled_) {
        // A grant launched during the dead window must not survive into the
        // restored wire; the epoch bump kills it at arrival. Safe because
        // the epoch is not a digest operand and the oracle path never runs
        // this branch.
        ++uv.epoch;
        ++vu.epoch;
        view_.register_update(idx, f.a, f.b, /*alive=*/true, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        uv.up = vu.up = true;
        if (!router_dead_[f.a] && !router_dead_[f.b]) {
          resync_link_credits(f.a, f.b);
          resync_link_credits(f.b, f.a);
        }
        refresh_fault_table(f.a, f.b);
        try_grant(f.a, pu, now);
        try_grant(f.b, pv, now);
      }
      break;
    }
    case FaultKind::kRouterDown: {
      const int r = f.a;
      D2NET_REQUIRE(r >= 0 && r < topo_.num_routers(), "router fault out of range");
      if (router_dead_[r]) return;
      ++fstats_.faults_applied;
      ++progress_;
      router_dead_[r] = 1;
      RouterState& rs = routers_[r];
      const auto& nbrs = topo_.neighbors(r);
      for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
        ++rs.out_ports[i].epoch;  // wires die in both directions
        ++routers_[nbrs[i]].out_ports[out_port_toward(nbrs[i], r)].epoch;
      }
      if (!prop_enabled_) refresh_fault_table(-1, -1);
      // Everything queued inside the dead router dies with it; no credits
      // move (the upstream side resyncs when the router comes back).
      for (int o = 0; o < static_cast<int>(rs.out_ports.size()); ++o) {
        drain_out_port(r, o, now, /*credit_returns=*/false, /*allow_salvage=*/false);
      }
      if (prop_enabled_) {
        // Neighbors keep feeding the silent router until their detection
        // timeouts fire; those packets die at arrival like any other
        // physically-destroyed traffic.
        view_.register_update(idx, r, -1, /*alive=*/false, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        // Neighbors salvage or drop what they had queued toward r.
        for (int n : nbrs) {
          drain_out_port(n, out_port_toward(n, r), now, /*credit_returns=*/true,
                         /*allow_salvage=*/true);
        }
      }
      break;
    }
    case FaultKind::kRouterUp: {
      const int r = f.a;
      D2NET_REQUIRE(r >= 0 && r < topo_.num_routers(), "router fault out of range");
      if (!router_dead_[r]) return;
      ++fstats_.faults_applied;
      ++progress_;
      router_dead_[r] = 0;
      const auto& nbrs = topo_.neighbors(r);
      if (prop_enabled_) {
        // Traffic launched toward the dead router during its outage must not
        // arrive after revival; bump the incident epochs in both directions.
        RouterState& rs = routers_[r];
        for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
          ++rs.out_ports[i].epoch;
          ++routers_[nbrs[i]].out_ports[out_port_toward(nbrs[i], r)].epoch;
        }
        view_.register_update(idx, r, -1, /*alive=*/true, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        refresh_fault_table(-1, -1);
        for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
          const int n = nbrs[i];
          if (!routers_[r].out_ports[i].up || router_dead_[n]) continue;
          resync_link_credits(r, n);
          resync_link_credits(n, r);
          try_grant(r, i, now);
          try_grant(n, out_port_toward(n, r), now);
        }
        for (int j = 0; j < topo_.endpoints_of(r); ++j) {
          const int node = topo_.node_base(r) + j;
          resync_nic_credits(node);
          try_inject(node, now);
        }
      }
      break;
    }
  }
}

bool NetworkSim::outstanding_work() const {
  if (exchange_mode_) return exchange_remaining_ > 0;
  if (pool_.in_use() > 0) return true;
  for (const NicState& nic : nics_) {
    if (!nic.pending.empty()) return true;
  }
  return false;
}

void NetworkSim::handle_watchdog(TimePs now) {
  if (progress_ == watch_last_ && outstanding_work()) {
    // Nothing moved for a whole interval with work outstanding: declare the
    // run wedged, snapshot the stuck state and let the driver exit.
    wedged_ = true;
    fstats_.wedged = true;
    WatchdogSnapshot& s = fstats_.watchdog;
    s.time = now;
    s.in_flight = static_cast<std::int64_t>(pool_.in_use());
    s.nic_backlog = 0;
    for (const NicState& nic : nics_) {
      s.nic_backlog += static_cast<std::int64_t>(nic.pending.size() + nic.messages.size());
    }
    s.stalled_heads = 0;
    s.zero_credit_vcs = 0;
    for (const RouterState& rs : routers_) {
      for (const OutPort& op : rs.out_ports) {
        s.stalled_heads += op.ready.count;
        for (std::int64_t c : op.credits) {
          if (c < cfg_.packet_bytes) ++s.zero_credit_vcs;
        }
      }
    }
    return;
  }
  watch_last_ = progress_;
  queue_.push(now + cfg_.fault.watchdog_interval, EventType::kWatchdog);
}

void NetworkSim::setup_faults() {
  faults_enabled_ = cfg_.fault.enabled();
  prop_enabled_ = cfg_.fault.propagation_enabled();
  fstats_.enabled = faults_enabled_;
  fstats_.bucket_width = cfg_.fault.recovery_sample;
  hop_limit_ = cfg_.fault.hop_limit;
  if (hop_limit_ <= 0 && fault_table_ != nullptr) {
    hop_limit_ = 4 * fault_table_->diameter() + 4;
  }
  // Salvaged routes live in the inline Route storage; a longer limit could
  // never be exercised without overflowing it.
  hop_limit_ = std::min(hop_limit_, Route::kMaxHops);
  if (faults_enabled_ && fault_table_ != nullptr && cfg_.fault.reroute) {
    // Start from the healthy table regardless of what a previous faulted
    // run on this instance left behind.
    fault_table_->rebuild(topo_, nullptr);
  }
  if (faults_enabled_) {
    // The retry backoff doubles per attempt (retry_backoff << retries, see
    // drop_packet), so the last attempt's delay must fit in TimePs; the
    // per-packet retry and detour counters are one byte wide.
    const FaultConfig& fc = cfg_.fault;
    D2NET_REQUIRE(fc.retry_backoff >= 0, "fault.retry_backoff must be non-negative");
    D2NET_REQUIRE(fc.max_retries >= 0, "fault.max_retries must be non-negative");
    D2NET_REQUIRE(fc.max_retries == 0 ||
                      (fc.max_retries <= 63 &&
                       fc.retry_backoff <= std::numeric_limits<TimePs>::max() >>
                                               (fc.max_retries - 1)),
                  "fault.max_retries: retry_backoff << (max_retries - 1) overflows TimePs");
    D2NET_REQUIRE(fc.misroute_limit >= 0 && fc.misroute_limit <= 255,
                  "fault.misroute_limit must be in [0, 255]");
    // Entries that can never apply (after run end, unknown ids, non-adjacent
    // links) used to vanish silently; reject them up front with a located
    // error instead.
    validate_fault_schedule(topo_, cfg_.fault.schedule, window_end_, window_start_);
    for (std::size_t i = 0; i < cfg_.fault.schedule.size(); ++i) {
      queue_.push(cfg_.fault.schedule[i].time, EventType::kFault, static_cast<std::int32_t>(i));
    }
  }
  if (prop_enabled_) {
    D2NET_REQUIRE(cfg_.fault.detection_delay >= 0,
                  "fault.detection_delay must be non-negative");
    D2NET_REQUIRE(cfg_.fault.flood_process >= 0,
                  "fault.flood_process must be non-negative");
    view_.reset(topo_.num_routers(), static_cast<int>(cfg_.fault.schedule.size()));
  } else {
    view_.clear();
  }
  if (cfg_.fault.watchdog_interval > 0) {
    queue_.push(cfg_.fault.watchdog_interval, EventType::kWatchdog);
  }
}

void NetworkSim::arm_deadline() {
  deadline_enabled_ = cfg_.wall_limit_seconds > 0.0;
  if (!deadline_enabled_) return;
  deadline_countdown_ = kDeadlineStride;
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(cfg_.wall_limit_seconds));
}

void NetworkSim::run_until(TimePs end) {
  while (!queue_.empty()) {
    if (queue_.next_time() > end) break;
    if (exchange_mode_ && exchange_remaining_ == 0) break;
    if (wedged_ || timed_out_) break;
    const Event e = queue_.pop();
    now_ = e.time;
    if (e.type == EventType::kMetricsSample) {
      // Sampling ticks observe without perturbing: they bypass dispatch()
      // and the events_processed count so enabled and disabled runs report
      // identical engine statistics.
      handle_metrics_sample(e.time);
      continue;
    }
    if (e.type == EventType::kWatchdog) {
      // Same discipline: the check reads one counter, so the always-on
      // watchdog cannot perturb a healthy run either.
      handle_watchdog(e.time);
      continue;
    }
    if (digest_enabled_) {
      // Order-sensitive digest of exactly the dispatched stream (the same
      // events events_processed counts): any divergence in event content or
      // ordering between two runs flips it. The fold hashes (time, okey,
      // operands-sans-pool-slot), so the pool's slot assignment cannot
      // reach it.
      event_digest_ =
          fold_digest(event_digest_, e.time, e.okey, digest_w1(e), digest_w2(e));
    }
    dispatch(e);
    ++events_processed_;
    // Cooperative wall-clock deadline: one countdown decrement per event,
    // one steady_clock read per stride. The event sequence is untouched, so
    // a run that finishes under budget is bit-identical to one with no
    // budget at all; an over-budget run stops at the next stride boundary
    // with partial statistics and timed_out=true.
    if (deadline_enabled_ && --deadline_countdown_ <= 0) {
      deadline_countdown_ = kDeadlineStride;
      if (std::chrono::steady_clock::now() >= deadline_) timed_out_ = true;
    }
  }
}

void NetworkSim::self_audit(const char* where) const {
  if (!paranoid_) return;
  auto fail = [&](const std::string& msg) {
    throw InternalError(std::string("paranoid self-audit failed at ") + where + ": " + msg);
  };
  auto id = [](int router, std::size_t port) {
    return "router " + std::to_string(router) + " port " + std::to_string(port);
  };
  // Walk every input VC's live-cell list once: each live cell must sit on
  // the list of its own (in_port, vc) exactly once, own a distinct out port
  // within that input VC, and hold at least one packet. The walk also
  // recomputes per-VC buffer occupancy, per-out-port VOQ totals and the
  // number of ready-registered cells per out port.
  const auto pool_size = static_cast<std::int32_t>(voq_.size());
  std::vector<std::uint8_t> seen(voq_.size(), 0);
  std::size_t live = 0;
  std::vector<std::int64_t> voq_bytes;
  std::vector<std::int32_t> ready_cells;
  std::vector<std::int32_t> out_owner;  // last input VC seen feeding each out port
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const RouterState& rs = routers_[r];
    const std::size_t num_out = rs.out_ports.size();
    voq_bytes.assign(num_out, 0);
    ready_cells.assign(num_out, 0);
    out_owner.assign(num_out, -1);
    for (int ipx = 0; ipx < static_cast<int>(rs.in_ports.size()); ++ipx) {
      for (int vc = 0; vc < num_vcs_; ++vc) {
        const auto ivc = [&] {
          return id(r, static_cast<std::size_t>(ipx)) + " in vc " + std::to_string(vc);
        };
        const auto owner = static_cast<std::int32_t>(ipx * num_vcs_ + vc);
        std::int64_t occupied = 0;
        for (std::int32_t ci = ivc_head_[ivc_index(rs, ipx, vc)]; ci >= 0;
             ci = voq_[ci].next_sib) {
          if (ci >= pool_size) {
            fail(ivc() + " lists cell " + std::to_string(ci) + " past the pool");
          }
          if (seen[static_cast<std::size_t>(ci)]) {
            fail(ivc() + " reaches cell " + std::to_string(ci) + " a second time");
          }
          seen[static_cast<std::size_t>(ci)] = 1;
          ++live;
          const VoqCell& cell = voq_[ci];
          if (cell.in_port != ipx || cell.vc != vc) {
            fail(ivc() + " lists cell " + std::to_string(ci) + " of in port " +
                 std::to_string(cell.in_port) + " vc " + std::to_string(cell.vc));
          }
          if (cell.out < 0 || static_cast<std::size_t>(cell.out) >= num_out) {
            fail(ivc() + " cell " + std::to_string(ci) + " has out port " +
                 std::to_string(cell.out));
          }
          const auto o = static_cast<std::size_t>(cell.out);
          if (out_owner[o] == owner) {
            fail(ivc() + " has two live cells for out port " + std::to_string(o));
          }
          out_owner[o] = owner;
          if (cell.head < 0) {
            fail(ivc() + " cell " + std::to_string(ci) +
                 (cell.in_ready ? " is ready with an empty FIFO" : " is live but empty"));
          }
          if (cell.in_ready) ++ready_cells[o];
          for (int pid = cell.head; pid >= 0; pid = pool_[pid].vnext) {
            occupied += pool_[pid].size;
            voq_bytes[o] += pool_[pid].size;
          }
        }
        if (occupied > vc_buffer_bytes_) {
          fail("input VC holds " + std::to_string(occupied) + " bytes, buffer is " +
               std::to_string(vc_buffer_bytes_));
        }
      }
    }
    for (std::size_t o = 0; o < rs.out_ports.size(); ++o) {
      const OutPort& op = rs.out_ports[o];
      if (op.queued_bytes != voq_bytes[o]) {
        fail(id(r, o) + " queued_bytes " + std::to_string(op.queued_bytes) +
             " != VOQ contents " + std::to_string(voq_bytes[o]));
      }
      if (op.ready.count != ready_cells[o]) {
        fail(id(r, o) + " ready list holds " + std::to_string(op.ready.count) + " cells, " +
             std::to_string(ready_cells[o]) + " live cells are marked ready");
      }
      if (op.to_node) continue;
      // Credit conservation on the wire r -> peer: every byte of the
      // receiving VC buffer is either available as sender credit, in
      // flight as a pending credit return, or occupied by a buffered
      // packet. In-flight packets hold the balance, so the sum never
      // exceeds the buffer and each term stays non-negative.
      const RouterState& peer = routers_[op.peer_router];
      for (int v = 0; v < num_vcs_; ++v) {
        const std::int64_t occupied = input_vc_bytes(peer, op.peer_in_port, v);
        const std::int64_t credits = op.credits[v];
        const std::int64_t pending = op.credits_pending[v];
        if (credits < 0) fail(id(r, o) + " vc " + std::to_string(v) + " negative credits");
        if (pending < 0) {
          fail(id(r, o) + " vc " + std::to_string(v) + " negative pending credits");
        }
        if (credits + pending + occupied > vc_buffer_bytes_) {
          fail(id(r, o) + " vc " + std::to_string(v) + " over-credited: credits " +
               std::to_string(credits) + " + pending " + std::to_string(pending) +
               " + occupied " + std::to_string(occupied) + " > buffer " +
               std::to_string(vc_buffer_bytes_));
        }
      }
    }
  }
  // Every pool cell is either live (reached above) or on the free list.
  std::size_t free_cells = 0;
  for (std::int32_t ci = voq_.free_head(); ci >= 0; ci = voq_[ci].next_sib) {
    if (ci >= pool_size || seen[static_cast<std::size_t>(ci)]) {
      fail("free list reaches cell " + std::to_string(ci) + ", which is live, listed twice "
           "or past the pool");
    }
    seen[static_cast<std::size_t>(ci)] = 1;
    ++free_cells;
  }
  if (live != voq_.live() || live + free_cells != voq_.size()) {
    fail(std::to_string(live) + " listed live + " + std::to_string(free_cells) +
         " free VOQ cells, pool has " + std::to_string(voq_.size()) + " (" +
         std::to_string(voq_.live()) + " counted live)");
  }
  // Same conservation law on every injection wire (NIC -> router).
  for (std::size_t n = 0; n < nics_.size(); ++n) {
    const NicState& nic = nics_[n];
    for (int v = 0; v < num_vcs_; ++v) {
      const std::int64_t occupied = input_vc_bytes(routers_[nic.router], nic.in_port, v);
      const std::int64_t credits = nic.credits[v];
      const std::int64_t pending = nic.credits_pending[v];
      if (credits < 0) fail("nic " + std::to_string(n) + " negative credits");
      if (pending < 0) fail("nic " + std::to_string(n) + " negative pending credits");
      if (credits + pending + occupied > vc_buffer_bytes_) {
        fail("nic " + std::to_string(n) + " vc " + std::to_string(v) +
             " over-credited: credits " + std::to_string(credits) + " + pending " +
             std::to_string(pending) + " + occupied " + std::to_string(occupied) +
             " > buffer " + std::to_string(vc_buffer_bytes_));
      }
    }
  }
}

std::shared_ptr<const SimMetrics> NetworkSim::build_metrics() {
  if (!metrics_enabled_) return nullptr;
  auto out = std::make_shared<SimMetrics>();
  out->sample_period = cfg_.metrics.sample_period;
  out->capacities.voq_cells = voq_.size();  // the run's peak live cells
  out->capacities.event_queue_reserved = queue_.reserved();
  out->capacities.packet_pool_reserved = pool_.reserved();
  out->capacities.packet_pool_slots = pool_.capacity();
  out->phases = phases_;
  out->occupancy = std::move(occupancy_series_);
  occupancy_series_.clear();
  std::size_t num_ports = 0;
  for (const auto& per_router : port_instr_) num_ports += per_router.size();
  out->ports.reserve(num_ports);
  for (auto& per_router : port_instr_) {
    for (PortInstr& pi : per_router) {
      if (pi.stall_since >= 0) {  // close stall intervals open at run end
        pi.m.credit_stall_ps += now_ - pi.stall_since;
        pi.stall_since = -1;
      }
      out->ports.push_back(pi.m);
    }
  }
  if (prop_enabled_) {
    // Control-plane convergence as first-class registry counters; written
    // only at export so the metrics path cannot perturb the run. Guarded on
    // propagation so disabled runs export the same registry as before.
    const ConvergenceStats& cv = fstats_.convergence;
    registry_->counter("fault_updates").add(cv.updates);
    registry_->counter("fault_updates_converged").add(cv.converged);
    registry_->counter("fault_detections").add(cv.detections);
    registry_->counter("fault_flood_messages").add(cv.flood_messages);
    registry_->counter("fault_routers_reached").add(cv.routers_reached);
    registry_->counter("fault_misroutes").add(cv.misroutes);
    registry_->counter("fault_misroute_budget_drops").add(cv.budget_drops);
  }
  out->registry = std::move(*registry_);
  // The cached handles point into the moved-from registry; reset()
  // recreates both before the next run.
  registry_.reset();
  ctr_grants_ = ctr_credit_skips_ = ctr_injection_stalls_ = ctr_samples_ = nullptr;
  hist_carryover_ns_ = nullptr;
  return out;
}

OpenLoopResult NetworkSim::run_open_loop(const TrafficPattern& pattern, double load,
                                         TimePs duration, TimePs warmup) {
  D2NET_REQUIRE(routing_ != nullptr, "set_routing() before running");
  D2NET_REQUIRE(load > 0.0 && load <= 1.001, "load must be in (0, 1]");
  D2NET_REQUIRE(warmup < duration, "warmup must precede the end of the run");
  reset();
  pattern_ = &pattern;
  load_ = load;
  gen_end_ = duration;
  window_start_ = warmup;
  window_end_ = duration;

  // Stagger first generations uniformly over one mean inter-arrival. The
  // stagger is the first draw of each node's private stream.
  const double mean = static_cast<double>(cfg_.packet_serialization()) / load;
  for (int node = 0; node < topo_.num_nodes(); ++node) {
    queue_.push(static_cast<TimePs>(node_rng_[node].uniform() * mean), EventType::kGenerate,
                node);
  }
  if (metrics_enabled_) {
    queue_.push(cfg_.metrics.sample_period, EventType::kMetricsSample);
  }
  setup_faults();
  arm_deadline();
  run_until(duration);
  phases_.in_flight_at_end = static_cast<std::int64_t>(pool_.in_use());
  if (paranoid_) self_audit("run_open_loop end");

  OpenLoopResult res;
  res.offered_load = load;
  res.timed_out = timed_out_;
  // A timed-out run measured only up to the simulated time it reached, so
  // its throughput is normalized by that shorter window (0 if it stopped
  // inside the warmup). A wedged run keeps the full window: the network
  // really delivers nothing after the wedge.
  res.t_stop = timed_out_ ? now_ : duration;
  const double window_ps = static_cast<double>(std::max(res.t_stop, warmup) - warmup);
  const double capacity_bytes =
      window_ps / static_cast<double>(cfg_.ps_per_byte) * topo_.num_nodes();
  res.accepted_throughput =
      window_ps > 0 ? static_cast<double>(ejected_bytes_window_) / capacity_bytes : 0.0;
  res.avg_latency_ns = latency_ns_.mean();
  res.p50_latency_ns = latency_ns_.percentile(50);
  res.p99_latency_ns = latency_ns_.percentile(99);
  res.packets_measured = latency_ns_.count();
  res.packets_injected = packets_injected_;
  res.events_processed = events_processed_;
  res.event_digest = digest_enabled_ ? event_digest_ : 0;
  res.avg_hops =
      hop_count_ > 0 ? static_cast<double>(hop_sum_) / static_cast<double>(hop_count_) : 0.0;
  res.fraction_minimal =
      packets_injected_ > 0
          ? static_cast<double>(packets_minimal_) / static_cast<double>(packets_injected_)
          : 0.0;
  // Jain index over per-node ejected bytes: (sum x)^2 / (n * sum x^2).
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::int64_t x : ejected_per_node_) {
    sum += static_cast<double>(x);
    sum_sq += static_cast<double>(x) * static_cast<double>(x);
  }
  res.jain_fairness =
      sum_sq > 0.0 ? sum * sum / (static_cast<double>(ejected_per_node_.size()) * sum_sq)
                   : 0.0;
  res.phases = phases_;
  res.faults = fstats_;
  res.metrics = build_metrics();
  return res;
}

ExchangeResult NetworkSim::run_exchange(const ExchangePlan& plan, TimePs time_limit) {
  D2NET_REQUIRE(routing_ != nullptr, "set_routing() before running");
  D2NET_REQUIRE(static_cast<int>(plan.per_node.size()) == topo_.num_nodes(),
                "plan arity must match node count");
  reset();
  exchange_mode_ = true;
  plan_order_ = plan.order;
  window_start_ = 0;
  window_end_ = time_limit;
  gen_end_ = 0;

  exchange_remaining_ = plan.total_bytes();
  D2NET_REQUIRE(exchange_remaining_ > 0, "empty exchange plan");
  for (int node = 0; node < topo_.num_nodes(); ++node) {
    nics_[node].messages = plan.per_node[node];
    queue_.push(0, EventType::kNicFree, node);
  }
  if (metrics_enabled_) {
    queue_.push(cfg_.metrics.sample_period, EventType::kMetricsSample);
  }
  setup_faults();
  arm_deadline();
  run_until(time_limit);
  phases_.in_flight_at_end = static_cast<std::int64_t>(pool_.in_use());
  if (paranoid_) self_audit("run_exchange end");

  ExchangeResult res;
  res.total_bytes = plan.total_bytes();
  res.timed_out = timed_out_;
  res.delivered_bytes = res.total_bytes - exchange_remaining_;
  res.completed = exchange_completion_ >= 0;
  if (res.completed) {
    res.completion_us = to_us(exchange_completion_);
    const double per_node_bytes =
        static_cast<double>(res.total_bytes) / std::max(1, plan.active_nodes());
    const double line_bytes =
        static_cast<double>(exchange_completion_) / static_cast<double>(cfg_.ps_per_byte);
    res.effective_throughput = per_node_bytes / line_bytes;
  }
  res.avg_latency_ns = latency_ns_.mean();
  res.event_digest = digest_enabled_ ? event_digest_ : 0;
  res.faults = fstats_;
  res.metrics = build_metrics();
  return res;
}

}  // namespace d2net
