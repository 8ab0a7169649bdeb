#include "routing/ugal_global_routing.h"

#include "common/error.h"

namespace d2net {

UgalGlobalRouting::UgalGlobalRouting(const MinimalTable& table, VcPolicy policy,
                                     SharedIntermediates intermediates, int num_indirect,
                                     double c, const PortLoadProvider& loads)
    : table_(table),
      policy_(policy),
      intermediates_(std::move(intermediates)),
      num_indirect_(num_indirect),
      c_(c),
      loads_(loads) {
  D2NET_REQUIRE(num_indirect_ >= 1, "UGAL-G needs at least one indirect candidate");
  D2NET_REQUIRE(intermediates_ != nullptr && intermediates_->size() >= 3,
                "UGAL-G needs at least three intermediates");
}

std::int64_t UgalGlobalRouting::path_cost(const std::uint16_t* routers, std::size_t n) const {
  std::int64_t cost = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    cost += loads_.output_queue_bytes(routers[i], routers[i + 1]);
  }
  return cost;
}

void UgalGlobalRouting::route_into(int src_router, int dst_router, Rng& rng,
                                   Route& out) const {
  D2NET_REQUIRE(src_router != dst_router, "route() needs distinct routers");
  out.routers.clear();
  out.vcs.clear();
  out.intermediate_pos = -1;
  if (table_.distance(src_router, dst_router) < 0) {
    // Destination unreachable on the (fault-degraded) table: an empty route
    // tells the simulator to drop or retry the packet.
    return;
  }

  // Best-so-far path accumulates directly in `out`; candidates build in an
  // inline scratch of the same capacity (no heap traffic per decision).
  table_.sample_path_into(src_router, dst_router, rng, out.routers);
  double best_cost = static_cast<double>(path_cost(out.routers.begin(), out.routers.size()));

  decltype(Route::routers) candidate;
  const std::vector<int>& vias = *intermediates_;
  for (int j = 0; j < num_indirect_; ++j) {
    // Same RNG stream as before on a healthy table (see UgalRouting).
    int via = -1;
    int broken_draws = 0;
    do {
      const int cand = vias[rng.next_below(vias.size())];
      if (cand == src_router || cand == dst_router) continue;
      if (table_.distance(src_router, cand) < 0 || table_.distance(cand, dst_router) < 0) {
        if (++broken_draws >= 2 * static_cast<int>(vias.size())) break;
        continue;
      }
      via = cand;
    } while (via < 0);
    if (via < 0) continue;
    table_.sample_path_into(src_router, via, rng, candidate);
    const int via_pos = static_cast<int>(candidate.size()) - 1;
    table_.sample_path_append(via, dst_router, rng, candidate);
    const double cost = c_ * static_cast<double>(path_cost(candidate.begin(), candidate.size()));
    if (cost < best_cost) {  // strict: minimal wins ties
      best_cost = cost;
      out.routers = candidate;
      out.intermediate_pos = static_cast<std::int8_t>(via_pos);
    }
  }

  assign_vcs(out, policy_);
}

int UgalGlobalRouting::num_vcs() const {
  return policy_ == VcPolicy::kHopIndex ? 2 * table_.diameter() : 2;
}

}  // namespace d2net
