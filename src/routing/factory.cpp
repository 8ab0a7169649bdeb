#include "routing/factory.h"

#include "common/error.h"
#include "routing/minimal_routing.h"
#include "routing/ugal_global_routing.h"
#include "routing/valiant_routing.h"
#include "topology/topology.h"

namespace d2net {

const char* to_string(RoutingStrategy s) {
  switch (s) {
    case RoutingStrategy::kMinimal: return "MIN";
    case RoutingStrategy::kValiant: return "INR";
    case RoutingStrategy::kUgal: return "UGAL";
    case RoutingStrategy::kUgalThreshold: return "UGAL-Th";
    case RoutingStrategy::kUgalGlobal: return "UGAL-G";
  }
  return "?";
}

VcPolicy vc_policy_for(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSlimFly:
    case TopologyKind::kHyperX2D:
    // Dragonfly minimal routes (local-global-local) are not ordered by a
    // towards/away classification; the standard scheme increments the VC
    // per hop, which the hop-index policy implements.
    case TopologyKind::kDragonfly:
      return VcPolicy::kHopIndex;
    default:
      return VcPolicy::kPhase;
  }
}

UgalParams default_ugal_params(TopologyKind kind, bool threshold) {
  UgalParams p;
  switch (kind) {
    case TopologyKind::kSlimFly:
    case TopologyKind::kHyperX2D:
    case TopologyKind::kDragonfly:  // UGAL's original target topology
      p.num_indirect = 4;
      p.c = 1.0;  // cSF
      p.sf_length_scaling = true;
      break;
    case TopologyKind::kMlfm:
      p.num_indirect = 5;
      p.c = 2.0;
      break;
    case TopologyKind::kOft:
      p.num_indirect = 1;
      p.c = 2.0;
      break;
    default:
      p.num_indirect = 4;
      p.c = 2.0;
      break;
  }
  p.threshold = threshold ? 0.10 : -1.0;
  return p;
}

std::unique_ptr<RoutingAlgorithm> make_routing(const Topology& topo, const MinimalTable& table,
                                               RoutingStrategy strategy,
                                               const PortLoadProvider& loads) {
  return make_routing(topo, table, strategy, loads,
                      default_ugal_params(topo.kind(), strategy == RoutingStrategy::kUgalThreshold));
}

std::unique_ptr<RoutingAlgorithm> make_routing(const Topology& topo, const MinimalTable& table,
                                               RoutingStrategy strategy,
                                               const PortLoadProvider& loads,
                                               const UgalParams& params,
                                               SharedIntermediates intermediates) {
  const VcPolicy policy = vc_policy_for(topo.kind());
  // Routes are stored in the packets' fixed inline arrays of 16-bit router
  // ids: a healthy indirect route needs at most 2 * diameter + 1 routers.
  // (Fault salvage can stretch routes further; the simulator clamps its hop
  // limit to the same capacity.)
  D2NET_REQUIRE(2 * table.diameter() + 1 <= Route::kMaxRouters,
                "topology diameter exceeds the inline route capacity");
  D2NET_REQUIRE(topo.num_routers() <= Route::kMaxRouterIds,
                "routes store router ids in 16 bits: at most 65,536 routers");
  auto vias = [&]() -> SharedIntermediates {
    if (intermediates != nullptr) return std::move(intermediates);
    return std::make_shared<const std::vector<int>>(valiant_intermediates(topo));
  };
  switch (strategy) {
    case RoutingStrategy::kMinimal:
      return std::make_unique<MinimalRouting>(table, policy);
    case RoutingStrategy::kValiant:
      return std::make_unique<ValiantRouting>(table, policy, vias());
    case RoutingStrategy::kUgalGlobal:
      return std::make_unique<UgalGlobalRouting>(table, policy, vias(), params.num_indirect,
                                                 params.c, loads);
    case RoutingStrategy::kUgal:
    case RoutingStrategy::kUgalThreshold: {
      UgalParams p = params;
      if (strategy == RoutingStrategy::kUgalThreshold && p.threshold < 0) p.threshold = 0.10;
      if (strategy == RoutingStrategy::kUgal) p.threshold = -1.0;
      std::string label = std::string(to_string(topo.kind())) +
                          (strategy == RoutingStrategy::kUgal ? "-A" : "-ATh");
      return std::make_unique<UgalRouting>(table, policy, vias(), p, loads, std::move(label));
    }
  }
  D2NET_ASSERT(false, "unreachable");
  return nullptr;
}

}  // namespace d2net
