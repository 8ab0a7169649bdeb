// Routing algorithm interface (paper Section 3).
//
// All algorithms decide the complete route at injection time at the source
// router; adaptive algorithms additionally read the *local* output-queue
// occupancies of the source router through PortLoadProvider (the "local
// UGAL" variant of Section 3.3 — no global buffer knowledge).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "routing/route.h"

namespace d2net {

/// Read-only view of a router's local output-queue state, implemented by
/// the simulator. The zero implementation makes adaptive algorithms behave
/// like their oblivious counterparts and serves graph-level tests.
class PortLoadProvider {
 public:
  virtual ~PortLoadProvider() = default;

  /// Bytes currently queued at `router` for the output port toward the
  /// adjacent router `next_hop` (all VCs combined).
  virtual std::int64_t output_queue_bytes(int router, int next_hop) const = 0;

  /// Capacity of one output queue in bytes (for threshold-based decisions).
  virtual std::int64_t output_queue_capacity() const = 0;
};

/// A PortLoadProvider that always reports empty queues.
class ZeroLoadProvider final : public PortLoadProvider {
 public:
  std::int64_t output_queue_bytes(int, int) const override { return 0; }
  std::int64_t output_queue_capacity() const override { return 1; }
};

/// How per-hop virtual channels are assigned (Section 3.4).
enum class VcPolicy {
  /// SF scheme [Besta & Hoefler]: VC = hop index. 2 VCs suffice for minimal
  /// routes, 4 for indirect ones.
  kHopIndex,
  /// MLFM/OFT scheme: minimal routes are inherently deadlock-free on VC 0
  /// (towards/away ordering); indirect routes use VC 0 up to the
  /// intermediate router and VC 1 afterwards.
  kPhase,
};

/// Fills route.vcs according to the policy; route.intermediate_pos must be
/// set beforehand. Returns the number of VCs the policy may use for routes
/// of this shape.
void assign_vcs(Route& route, VcPolicy policy);

/// Decides routes between router pairs. Implementations are immutable and
/// thread-compatible; the Rng carries all mutable state.
class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  /// Writes the route from src_router to dst_router (src != dst) into `out`
  /// (overwritten, not appended). This is the simulator's per-packet entry
  /// point; with the inline-array Route it never allocates.
  virtual void route_into(int src_router, int dst_router, Rng& rng, Route& out) const = 0;

  /// Convenience wrapper for tests and analysis code.
  Route route(int src_router, int dst_router, Rng& rng) const {
    Route out;
    route_into(src_router, dst_router, rng, out);
    return out;
  }

  /// Upper bound on VC indices this algorithm emits, for simulator sizing.
  virtual int num_vcs() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace d2net
