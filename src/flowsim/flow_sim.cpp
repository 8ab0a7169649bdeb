#include "flowsim/flow_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "routing/minimal_table.h"
#include "sim/traffic.h"
#include "topology/topology.h"

namespace d2net::flowsim {

namespace {

// Residual bytes below this count as delivered (absorbs the <= 1 ps
// rounding of integer completion times against double byte accounting).
constexpr double kEpsBytes = 1e-4;
// Rates below this never schedule a completion; the flow waits for the next
// rate change. Max-min fair shares are bounded below by 1/flows-on-link, so
// this only guards floating-point corner cases.
constexpr double kMinRate = 1e-12;
// The wall-clock deadline is checked once per this much work, counted as
// events plus flows recomputed: one event can recompute a single flow or a
// network-wide component, so an event count alone would let a
// recompute-heavy run overshoot its limit by seconds.
constexpr std::int64_t kWallCheckWork = 32768;

// SplitMix64 finalizer — same constants as the packet engine's mix_seed,
// so both engines derive per-node streams the same way from one run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  return h * 0x100000001B3ULL;
}

}  // namespace

FlowGap flow_engine_gap(const RunFeatures& run) {
  if (run.exchange) return FlowGap::kExchange;
  if (run.faults) return FlowGap::kFaults;
  if (run.metrics) return FlowGap::kMetrics;
  return FlowGap::kNone;
}

const char* to_string(FlowGap gap) {
  switch (gap) {
    case FlowGap::kNone: return "none";
    case FlowGap::kExchange: return "the flow engine does not run exchanges; use engine=packet";
    case FlowGap::kFaults:
      return "the flow engine does not support fault injection; drop the fault schedule or "
             "use engine=packet";
    case FlowGap::kMetrics:
      return "the flow engine does not support per-port/VC metrics; use engine=packet";
  }
  return "?";
}

FlowSim::FlowSim(const Topology& topo, const SimConfig& cfg)
    : topo_(topo), cfg_(cfg), graph_(topo) {
  const FlowGap gap = flow_engine_gap({.faults = cfg.fault.enabled(),
                                       .metrics = cfg.metrics.enabled});
  if (gap != FlowGap::kNone) throw ArgumentError(to_string(gap));
  D2NET_REQUIRE(cfg.flow.rate_interval >= 0, "flow.rate_interval must be >= 0");
}

void FlowSim::reset() {
  table_.reset(graph_.num_links());
  src_of_.clear();
  dst_of_.clear();
  start_of_.clear();
  last_update_.clear();
  gen_of_.clear();

  const std::size_t n = static_cast<std::size_t>(topo_.num_nodes());
  node_rng_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    node_rng_[i].reseed(mix_seed(cfg_.seed, static_cast<std::uint64_t>(i)));
  }
  active_of_node_.assign(n, 0);
  backlog_of_node_.assign(n, 0);
  ejected_per_node_.assign(n, 0.0);

  dirty_links_.clear();
  dirty_mark_.assign(static_cast<std::size_t>(graph_.num_links()), 0);
  dirty_epoch_ = 1;

  heap_.clear();
  next_seq_ = 0;

  pattern_ = nullptr;
  load_ = 0.0;
  now_ = 0;
  gen_end_ = 0;
  window_start_ = 0;
  window_end_ = 0;
  timed_out_ = false;

  stats_ = FlowEngineStats{};
  stats_.enabled = true;
  events_processed_ = 0;
  event_digest_ = 0;
  flows_started_ = 0;
  flows_completed_ = 0;
  injected_warmup_ = 0;
  injected_measured_ = 0;
  delivered_warmup_ = 0;
  delivered_measured_ = 0;
  delivered_carryover_ = 0;
  hop_sum_ = 0;
  minimal_flows_ = 0;
  delivered_window_bytes_ = 0.0;
  latency_ns_ = LogHistogram{};
}

void FlowSim::grow_flow_arrays() {
  const std::size_t cap = static_cast<std::size_t>(table_.capacity());
  if (src_of_.size() >= cap) return;
  src_of_.resize(cap, -1);
  dst_of_.resize(cap, -1);
  start_of_.resize(cap, 0);
  last_update_.resize(cap, 0);
  gen_of_.resize(cap, 0);
}

void FlowSim::push_event(TimePs time, EventKind kind, std::int32_t a, std::uint32_t gen) {
  Event e;
  e.time = time;
  e.seq = next_seq_++;
  e.a = a;
  e.gen = gen;
  e.kind = kind;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), [](const Event& x, const Event& y) {
    return x.time > y.time || (x.time == y.time && x.seq > y.seq);
  });
}

TimePs FlowSim::completion_delay(double remaining_bytes, double rate) const {
  const double ps =
      remaining_bytes * static_cast<double>(cfg_.ps_per_byte) / std::max(rate, kMinRate);
  constexpr double kCap = 4.0e18;  // stays well inside TimePs
  return static_cast<TimePs>(std::min(ps, kCap)) + 1;
}

void FlowSim::accrue(int flow) {
  const std::size_t f = static_cast<std::size_t>(flow);
  const TimePs dt = now_ - last_update_[f];
  if (dt <= 0) {
    last_update_[f] = now_;
    return;
  }
  const double rate = table_.rate[f];
  if (rate > 0.0) {
    const double bytes =
        rate * static_cast<double>(dt) / static_cast<double>(cfg_.ps_per_byte);
    table_.remaining[f] = std::max(0.0, table_.remaining[f] - bytes);
    const TimePs lo = std::max(last_update_[f], window_start_);
    const TimePs hi = std::min(now_, window_end_);
    if (hi > lo) {
      const double wbytes =
          rate * static_cast<double>(hi - lo) / static_cast<double>(cfg_.ps_per_byte);
      delivered_window_bytes_ += wbytes;
      ejected_per_node_[static_cast<std::size_t>(dst_of_[f])] += wbytes;
    }
  }
  last_update_[f] = now_;
}

void FlowSim::schedule_completion(int flow) {
  const std::size_t f = static_cast<std::size_t>(flow);
  const double rate = table_.rate[f];
  if (rate <= kMinRate) return;  // re-armed by the next rate increase
  push_event(now_ + completion_delay(table_.remaining[f], rate), EventKind::kCompletion, flow,
             gen_of_[f]);
}

void FlowSim::on_rate_change(int flow, double new_rate) {
  accrue(flow);
  table_.rate[static_cast<std::size_t>(flow)] = new_rate;
  ++stats_.rate_changes;
  ++gen_of_[static_cast<std::size_t>(flow)];  // lazy-invalidate the old completion event
  schedule_completion(flow);
}

void FlowSim::mark_dirty(const std::int32_t* links, int n) {
  for (int i = 0; i < n; ++i) {
    const std::int32_t l = links[i];
    if (dirty_mark_[static_cast<std::size_t>(l)] == dirty_epoch_) continue;
    dirty_mark_[static_cast<std::size_t>(l)] = dirty_epoch_;
    dirty_links_.push_back(l);
  }
}

int FlowSim::start_flow(int src_node, int dst_node) {
  const int src_router = topo_.router_of_node(src_node);
  const int dst_router = topo_.router_of_node(dst_node);
  route_scratch_.routers.clear();
  route_scratch_.vcs.clear();
  route_scratch_.intermediate_pos = -1;
  if (src_router == dst_router) {
    route_scratch_.routers.push_back(src_router);
  } else {
    routing_->route_into(src_router, dst_router, node_rng_[static_cast<std::size_t>(src_node)],
                         route_scratch_);
  }
  const int n = graph_.links_of_route(src_node, dst_node, route_scratch_, link_scratch_);
  const int f = table_.create(link_scratch_, n, static_cast<double>(kFlowBytes));
  grow_flow_arrays();
  const std::size_t fs = static_cast<std::size_t>(f);
  src_of_[fs] = src_node;
  dst_of_[fs] = dst_node;
  start_of_[fs] = now_;
  last_update_[fs] = now_;
  ++gen_of_[fs];

  ++flows_started_;
  if (now_ < window_start_) {
    ++injected_warmup_;
  } else {
    ++injected_measured_;
  }
  hop_sum_ += route_scratch_.hops();
  if (route_scratch_.minimal()) ++minimal_flows_;
  ++active_of_node_[static_cast<std::size_t>(src_node)];

  // Exact mode leaves the rate at 0: the caller settles it with one
  // recompute that also covers whatever else changed in the same event.
  if (cfg_.flow.rate_interval > 0) {
    // Optimistic estimate until the next rate tick: the fair share if every
    // link it crosses split evenly among its current flows.
    double est = 1.0;
    for (int i = 0; i < n; ++i) {
      est = std::min(est, 1.0 / table_.link_nflows[static_cast<std::size_t>(link_scratch_[i])]);
    }
    table_.rate[fs] = est;
    schedule_completion(f);
    mark_dirty(link_scratch_, n);
  }
  return n;
}

void FlowSim::recompute(const std::int32_t* links, int n) {
  const RepairResult r = repair_from(table_, links, n, scratch_, *this);
  ++stats_.repairs;
  stats_.widen_rounds += r.rounds;
  if (r.fell_back) ++stats_.fallbacks;
  stats_.flows_touched += r.flows_touched;
}

void FlowSim::finish_flow(int flow) {
  const std::size_t f = static_cast<std::size_t>(flow);
  const int src = src_of_[f];

  ++flows_completed_;
  if (now_ < window_start_) {
    ++delivered_warmup_;
  } else if (now_ <= window_end_) {
    if (start_of_[f] >= window_start_) {
      ++delivered_measured_;
      latency_ns_.add((now_ - start_of_[f]) / 1000);
    } else {
      ++delivered_carryover_;
    }
  }

  // Seeds for the post-removal recompute: the departing flow's links plus —
  // when a successor starts — the successor's links, so one recompute
  // covers both changes.
  const int base = flow * kMaxLinksPerFlow;
  const int nold = table_.nlinks[f];
  for (int i = 0; i < nold; ++i) {
    link_scratch_[kMaxLinksPerFlow + i] = table_.slot_link[static_cast<std::size_t>(base + i)];
  }
  table_.destroy(flow);
  --active_of_node_[static_cast<std::size_t>(src)];
  if (cfg_.flow.rate_interval > 0) mark_dirty(link_scratch_ + kMaxLinksPerFlow, nold);

  int nnew = 0;  // links of the successor flow, if one starts
  auto& backlog = backlog_of_node_[static_cast<std::size_t>(src)];
  if (backlog > 0) {
    --backlog;
    const int dst = pattern_->dest(src, node_rng_[static_cast<std::size_t>(src)]);
    nnew = start_flow(src, dst);
  }

  if (cfg_.flow.rate_interval == 0) {
    // start_flow left the successor's links in link_scratch_[0, nnew);
    // append the departed links after them.
    std::copy(link_scratch_ + kMaxLinksPerFlow, link_scratch_ + kMaxLinksPerFlow + nold,
              link_scratch_ + nnew);
    recompute(link_scratch_, nnew + nold);
  }
}

void FlowSim::dispatch_arrival(const Event& e) {
  if (e.time >= gen_end_) return;
  const int node = e.a;
  const std::size_t ns = static_cast<std::size_t>(node);
  if (active_of_node_[ns] < kMaxActivePerNode) {
    const int dst = pattern_->dest(node, node_rng_[ns]);
    const int n = start_flow(node, dst);
    if (cfg_.flow.rate_interval == 0) recompute(link_scratch_, n);
  } else {
    ++backlog_of_node_[ns];
  }
  // Poisson arrivals: exponential gaps with mean flow_time / load.
  const double mean = static_cast<double>(kFlowBytes) *
                      static_cast<double>(cfg_.ps_per_byte) / std::max(load_, 1e-9);
  const double u = 1.0 - node_rng_[ns].uniform();  // (0, 1]
  const auto dt = static_cast<TimePs>(-std::log(u) * mean) + 1;
  push_event(e.time + dt, EventKind::kArrival, node, 0);
}

void FlowSim::dispatch_completion(const Event& e) {
  const int flow = e.a;
  const std::size_t f = static_cast<std::size_t>(flow);
  if (!table_.in_use[f] || gen_of_[f] != e.gen) {
    ++stats_.stale_completions;
    return;
  }
  accrue(flow);
  if (table_.remaining[f] > kEpsBytes) {
    // Batched mode: the optimistic estimate overshot; re-arm at the
    // current (tick-corrected) rate.
    ++gen_of_[f];
    schedule_completion(flow);
    return;
  }
  finish_flow(flow);
}

void FlowSim::dispatch_rate_tick() {
  if (!dirty_links_.empty()) {
    waterfill_from(table_, dirty_links_.data(), static_cast<int>(dirty_links_.size()), scratch_,
                   *this);
    stats_.flows_touched += static_cast<std::int64_t>(scratch_.flows.size());
    dirty_links_.clear();
    ++dirty_epoch_;
    if (dirty_epoch_ == 0) {
      std::fill(dirty_mark_.begin(), dirty_mark_.end(), 0);
      dirty_epoch_ = 1;
    }
  }
}

bool FlowSim::run_until(TimePs end) {
  const bool digest = cfg_.collect_event_digest;
  const double wall_limit = cfg_.wall_limit_seconds;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto work = [this] { return events_processed_ + stats_.flows_touched; };
  std::int64_t next_check = work() + kWallCheckWork;
  const auto after = [](const Event& x, const Event& y) {
    return x.time > y.time || (x.time == y.time && x.seq > y.seq);
  };
  while (!heap_.empty()) {
    const Event e = heap_.front();
    if (e.time > end) break;
    std::pop_heap(heap_.begin(), heap_.end(), after);
    heap_.pop_back();
    now_ = e.time;
    ++events_processed_;
    if (digest) {
      event_digest_ = fnv1a_step(event_digest_, static_cast<std::uint64_t>(e.time));
      event_digest_ = fnv1a_step(event_digest_, e.seq);
      event_digest_ = fnv1a_step(event_digest_,
                                 (static_cast<std::uint64_t>(e.kind) << 32) |
                                     static_cast<std::uint32_t>(e.a));
    }
    switch (e.kind) {
      case EventKind::kArrival:
        dispatch_arrival(e);
        break;
      case EventKind::kCompletion:
        dispatch_completion(e);
        break;
      case EventKind::kRateTick:
        dispatch_rate_tick();
        if (now_ + cfg_.flow.rate_interval <= end) {
          push_event(now_ + cfg_.flow.rate_interval, EventKind::kRateTick, 0, 0);
        }
        break;
    }
    if (wall_limit > 0.0 && work() >= next_check) {
      next_check = work() + kWallCheckWork;
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - wall_start;
      if (elapsed.count() > wall_limit) {
        timed_out_ = true;
        return false;
      }
    }
  }
  return true;
}

void FlowSim::final_accrual(TimePs at) {
  now_ = at;
  for (int f = 0; f < table_.capacity(); ++f) {
    if (table_.in_use[static_cast<std::size_t>(f)]) accrue(f);
  }
}

OpenLoopResult FlowSim::run_open_loop(const TrafficPattern& pattern, double load,
                                      TimePs duration, TimePs warmup) {
  D2NET_REQUIRE(routing_ != nullptr, "set_routing() before running");
  D2NET_REQUIRE(load > 0.0 && load <= 1.0, "offered load must be in (0, 1]");
  D2NET_REQUIRE(duration > warmup && warmup >= 0, "need warmup < duration");
  reset();
  pattern_ = &pattern;
  load_ = load;
  gen_end_ = duration;
  window_start_ = warmup;
  window_end_ = duration;

  // Stagger first arrivals uniformly over one mean inter-arrival, from each
  // node's private stream (mirrors the packet engine's generation stagger).
  const double mean = static_cast<double>(kFlowBytes) *
                      static_cast<double>(cfg_.ps_per_byte) / load;
  for (int node = 0; node < topo_.num_nodes(); ++node) {
    push_event(static_cast<TimePs>(node_rng_[static_cast<std::size_t>(node)].uniform() * mean),
               EventKind::kArrival, node, 0);
  }
  if (cfg_.flow.rate_interval > 0) {
    push_event(cfg_.flow.rate_interval, EventKind::kRateTick, 0, 0);
  }
  const bool finished = run_until(duration);
  // A timed-out run accrues its active flows up to the simulated time it
  // reached and is normalized by that shorter window (0 if it stopped
  // inside the warmup).
  const TimePs t_stop = finished ? duration : now_;
  final_accrual(t_stop);

  OpenLoopResult res;
  res.offered_load = load;
  res.timed_out = timed_out_;
  res.t_stop = t_stop;
  const double window_ps = static_cast<double>(std::max(t_stop, warmup) - warmup);
  const double capacity_bytes =
      window_ps / static_cast<double>(cfg_.ps_per_byte) * topo_.num_nodes();
  res.accepted_throughput = window_ps > 0 ? delivered_window_bytes_ / capacity_bytes : 0.0;
  res.avg_latency_ns = latency_ns_.mean();
  res.p50_latency_ns = latency_ns_.percentile(50);
  res.p99_latency_ns = latency_ns_.percentile(99);
  res.packets_measured = latency_ns_.count();
  res.packets_injected = flows_started_;
  res.events_processed = events_processed_;
  res.event_digest = cfg_.collect_event_digest ? event_digest_ : 0;
  res.avg_hops = flows_started_ > 0
                     ? static_cast<double>(hop_sum_) / static_cast<double>(flows_started_)
                     : 0.0;
  res.fraction_minimal =
      flows_started_ > 0
          ? static_cast<double>(minimal_flows_) / static_cast<double>(flows_started_)
          : 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : ejected_per_node_) {
    sum += x;
    sum_sq += x * x;
  }
  res.jain_fairness =
      sum_sq > 0.0 ? sum * sum / (static_cast<double>(ejected_per_node_.size()) * sum_sq) : 0.0;
  res.phases.injected_warmup = injected_warmup_;
  res.phases.injected_measured = injected_measured_;
  res.phases.delivered_warmup = delivered_warmup_;
  res.phases.delivered_measured = delivered_measured_;
  res.phases.delivered_carryover = delivered_carryover_;
  res.phases.in_flight_at_end = table_.active;
  res.flow = stats_;
  return res;
}

ExchangeResult FlowSim::run_fluid_all_to_all(const MinimalTable& table,
                                             std::int64_t bytes_per_pair) const {
  D2NET_REQUIRE(bytes_per_pair > 0, "bytes_per_pair must be > 0");
  D2NET_REQUIRE(table.num_routers() == topo_.num_routers(),
                "minimal table does not match the topology");
  D2NET_REQUIRE(table.diameter() <= 2,
                "the fluid all-to-all model covers diameter-2 topologies only");
  const int R = topo_.num_routers();
  const double B = static_cast<double>(bytes_per_pair);
  std::vector<double> rho(static_cast<std::size_t>(graph_.num_network_links()), 0.0);
  for (int a = 0; a < R; ++a) {
    const double pa = topo_.endpoints_of(a);
    if (pa <= 0) continue;
    for (int b = 0; b < R; ++b) {
      if (b == a) continue;
      const double pb = topo_.endpoints_of(b);
      if (pb <= 0) continue;
      const double traffic = pa * pb * B;
      if (table.distance(a, b) == 1) {
        rho[static_cast<std::size_t>(graph_.link_between(a, b))] += traffic;
      } else {
        const auto nh = table.next_hops(a, b);
        const double w = traffic / static_cast<double>(nh.size());
        for (int m : nh) {
          rho[static_cast<std::size_t>(graph_.link_between(a, m))] += w;
          rho[static_cast<std::size_t>(graph_.link_between(m, b))] += w;
        }
      }
    }
  }
  const int N = topo_.num_nodes();
  // Injection and ejection links carry (N-1) x B each under all-to-all.
  double max_rho = static_cast<double>(N - 1) * B;
  for (double r : rho) max_rho = std::max(max_rho, r);
  const double completion_ps = max_rho * static_cast<double>(cfg_.ps_per_byte);

  ExchangeResult res;
  res.completed = true;
  res.completion_us = completion_ps / 1e6;
  res.total_bytes = static_cast<std::int64_t>(N) * (N - 1) * bytes_per_pair;
  res.delivered_bytes = res.total_bytes;
  const double per_node_bytes = static_cast<double>(N - 1) * B;
  res.effective_throughput =
      per_node_bytes / (completion_ps / static_cast<double>(cfg_.ps_per_byte));
  return res;
}

std::int64_t FlowSim::output_queue_bytes(int router, int next_hop) const {
  return static_cast<std::int64_t>(
             table_.link_nflows[static_cast<std::size_t>(graph_.link_between(router, next_hop))]) *
         cfg_.packet_bytes;
}

std::int64_t FlowSim::output_queue_capacity() const { return cfg_.buffer_bytes_per_port; }

}  // namespace d2net::flowsim
