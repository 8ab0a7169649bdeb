#include "sim/experiment.h"

#include <algorithm>

#include "common/error.h"

namespace d2net {

int num_vcs_needed(const Topology& topo, const MinimalTable& table, RoutingStrategy strategy) {
  const bool hop_index = vc_policy_for(topo.kind()) == VcPolicy::kHopIndex;
  const int minimal_vcs = hop_index ? std::max(1, table.diameter()) : 1;
  if (strategy == RoutingStrategy::kMinimal) return minimal_vcs;
  return hop_index ? 2 * minimal_vcs : 2;  // Valiant / UGAL-L / UGAL-G alike
}

SimStack::SimStack(const Topology& topo, RoutingStrategy strategy, const SimConfig& cfg,
                   std::optional<UgalParams> params)
    : SimStack(topo, std::make_shared<const MinimalTable>(topo), strategy, cfg,
               std::move(params)) {}

namespace {
const MinimalTable& checked_table(const std::shared_ptr<const MinimalTable>& table,
                                  const Topology& topo) {
  D2NET_REQUIRE(table != nullptr, "SimStack needs a minimal table");
  D2NET_REQUIRE(table->num_routers() == topo.num_routers(),
                "minimal table does not match the topology");
  return *table;
}
}  // namespace

SimStack::SimStack(const Topology& topo, std::shared_ptr<const MinimalTable> table,
                   RoutingStrategy strategy, const SimConfig& cfg,
                   std::optional<UgalParams> params, SharedIntermediates intermediates)
    : topo_(topo), table_(std::move(table)), cfg_engine_(cfg.engine) {
  D2NET_REQUIRE(cfg.shards == 1,
                "SimConfig::shards must be 1: each simulation runs one serial event "
                "loop; use --jobs to run sweep points in parallel");
  const MinimalTable* routing_table = &checked_table(table_, topo);
  const UgalParams p = params.has_value()
                           ? *params
                           : default_ugal_params(topo.kind(),
                                                 strategy == RoutingStrategy::kUgalThreshold);
  if (cfg_engine_ == SimEngine::kFlow) {
    // Only the selected engine is constructed: a flow run must not pay for
    // the packet engine's per-port and per-input-VC state at the scales the
    // flow engine exists for. FlowSim's constructor rejects packet-only config
    // (faults, metrics) with a descriptive ArgumentError.
    flow_ = std::make_unique<flowsim::FlowSim>(topo, cfg);
    algo_ = make_routing(topo_, *routing_table, strategy, *flow_, p, std::move(intermediates));
    flow_->set_routing(*algo_);
    return;
  }
  packet_ = std::make_unique<NetworkSim>(
      topo, cfg, num_vcs_needed(topo, *table_, strategy));
  if (cfg.fault.enabled() && cfg.fault.reroute) {
    // Fault-aware rerouting mutates the table mid-run; give this stack a
    // private copy so the shared healthy table stays immutable.
    fault_table_ = std::make_unique<MinimalTable>(*table_);
    packet_->set_fault_table(fault_table_.get());
    routing_table = fault_table_.get();
  }
  algo_ = make_routing(topo_, *routing_table, strategy, *packet_, p, std::move(intermediates));
  packet_->set_routing(*algo_);
}

NetworkSim& SimStack::sim() {
  D2NET_REQUIRE(packet_ != nullptr,
                "SimStack::sim() is packet-engine only (this stack runs engine=flow)");
  return *packet_;
}

OpenLoopResult SimStack::run_open_loop(const TrafficPattern& pattern, double load,
                                       TimePs duration, TimePs warmup) {
  if (flow_) return flow_->run_open_loop(pattern, load, duration, warmup);
  return packet_->run_open_loop(pattern, load, duration, warmup);
}

ExchangeResult SimStack::run_exchange(const ExchangePlan& plan, TimePs time_limit) {
  if (flow_) return flow_->run_exchange(plan, time_limit);
  return packet_->run_exchange(plan, time_limit);
}

ExchangeResult SimStack::run_fluid_all_to_all(std::int64_t bytes_per_pair) {
  D2NET_REQUIRE(flow_ != nullptr,
                "run_fluid_all_to_all needs the flow engine (engine=flow)");
  return flow_->run_fluid_all_to_all(*table_, bytes_per_pair);
}

std::vector<SweepPoint> run_load_sweep(SimStack& stack, const TrafficPattern& pattern,
                                       const std::vector<double>& loads, TimePs duration,
                                       TimePs warmup) {
  std::vector<SweepPoint> out;
  out.reserve(loads.size());
  for (double load : loads) {
    SweepPoint pt;
    pt.offered = load;
    pt.result = stack.run_open_loop(pattern, load, duration, warmup);
    out.push_back(std::move(pt));
  }
  return out;
}

double saturation_point(const std::vector<SweepPoint>& sweep, double threshold) {
  // A failed point has no measurement; a timed-out one measured only part
  // of its window, so its throughput is not data either.
  const auto judged = [](const SweepPoint& pt) { return !pt.failed && !pt.result.timed_out; };
  double sat = 0.0;
  for (const SweepPoint& pt : sweep) {
    if (!judged(pt)) continue;
    if (pt.result.accepted_throughput >= threshold * pt.offered) {
      sat = std::max(sat, pt.offered);
    }
  }
  // If even the lowest judged load saturates, report its accepted
  // throughput — the sustainable rate — rather than zero.
  if (sat == 0.0) {
    const auto first = std::find_if(sweep.begin(), sweep.end(), judged);
    if (first != sweep.end()) sat = first->result.accepted_throughput;
  }
  return sat;
}

std::vector<double> uniform_load_grid() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0};
}

std::vector<double> adversarial_load_grid() {
  return {0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0};
}

}  // namespace d2net
