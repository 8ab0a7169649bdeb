// UGAL-G — the *global* UGAL variant (Section 3.3 mentions it and sets it
// aside as impractical to implement in hardware; we provide it as an
// oracle baseline for the local variant).
//
// At injection the algorithm evaluates one sampled minimal path and nI
// indirect candidates using the queue occupancies of EVERY router along
// each candidate path (not just the source router's): cost = sum of the
// per-hop output-queue occupancies, scaled by the penalty c for indirect
// candidates. This is the idealized "perfect knowledge, zero latency"
// upper bound on what adaptivity can achieve.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "routing/minimal_table.h"
#include "routing/routing_algorithm.h"
#include "routing/valiant_routing.h"

namespace d2net {

class UgalGlobalRouting final : public RoutingAlgorithm {
 public:
  UgalGlobalRouting(const MinimalTable& table, VcPolicy policy,
                    SharedIntermediates intermediates, int num_indirect, double c,
                    const PortLoadProvider& loads);
  UgalGlobalRouting(const MinimalTable& table, VcPolicy policy,
                    std::vector<int> intermediates, int num_indirect, double c,
                    const PortLoadProvider& loads)
      : UgalGlobalRouting(table, policy,
                          std::make_shared<const std::vector<int>>(std::move(intermediates)),
                          num_indirect, c, loads) {}

  void route_into(int src_router, int dst_router, Rng& rng, Route& out) const override;
  int num_vcs() const override;
  std::string name() const override { return "UGAL-G"; }

 private:
  /// Sum of output-queue occupancies along a concrete router path.
  std::int64_t path_cost(const int* routers, std::size_t n) const;

  const MinimalTable& table_;
  VcPolicy policy_;
  SharedIntermediates intermediates_;
  int num_indirect_;
  double c_;
  const PortLoadProvider& loads_;
};

}  // namespace d2net
