// Packet representation and pool. Routes are computed once at injection and
// travel with the packet (source routing, Section 3.3). A Packet is 128
// bytes aligned to 64: 16-bit router ids in the inline Route, one-byte
// counters, and no field that another one already encodes (the source node
// is part of `uid`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "routing/route.h"

namespace d2net {

/// One in-flight packet: exactly 128 bytes, aligned to 64, so it occupies
/// two cache lines. Every scalar field sits in the first line together with
/// routers[0..5], which hold any healthy diameter-2 route; the second line
/// holds the rest of the route, including the per-hop VCs:
///
///   line 0: uid, eligible_at, gen_time, inject_time (0..31), vnext, size,
///           link_epoch, dst_node (32..47), hop, retries, misroutes
///           (48..50), route.routers[0..5] (52..63)
///   line 1: route.routers[6..23] and its count, route.vcs and its count,
///           route.intermediate_pos (64..127)
struct alignas(64) Packet {
  /// Pool-independent identity: (src_node << 34) | per-node injection
  /// counter, assigned once at successful injection. Event ordering keys
  /// and the event digest use it instead of the pool slot, so neither
  /// depends on the pool's slot assignment.
  std::uint64_t uid = 0;
  TimePs eligible_at = 0;  ///< forwarding eligibility (arrival + router latency)
  TimePs gen_time = 0;     ///< when the workload created it
  TimePs inject_time = 0;  ///< when the NIC started serializing it
  // Intrusive VOQ linkage (see sim/voq.h): while the packet waits in an
  // input-buffer virtual output queue this threads it into that FIFO, so
  // queue membership costs no allocation and a queue walk is sequential
  // pool-slot loads.
  std::int32_t vnext = -1;  ///< pool id of the next packet in the same VOQ
  int size = 0;             ///< bytes
  /// Epoch of the sending out-port at grant time; a link fault bumps the
  /// port epoch, so a mismatch on arrival means the wire died under the
  /// packet and it must be destroyed (fault runs only).
  std::uint32_t link_epoch = 0;
  int dst_node = -1;
  std::uint8_t hop = 0;  ///< index of the router the packet currently occupies
  /// Fault-retry attempts consumed (see FaultConfig; setup_faults bounds
  /// max_retries to at most 63).
  std::uint8_t retries = 0;
  /// Local-view detours consumed while routing tables were transiently
  /// inconsistent (fault.propagation only, see FaultConfig::misroute_limit,
  /// which setup_faults bounds to 255); reset on injection and on every
  /// retry re-injection.
  std::uint8_t misroutes = 0;
  Route route;

  /// The injecting node, recovered from the identity.
  int src_node() const { return static_cast<int>(uid >> 34); }
  /// Next-hop VC used when traversing `hop -> hop + 1`.
  int vc_at_hop() const { return route.vcs.empty() ? 0 : route.vcs[hop]; }
  bool at_destination_router() const {
    return hop == static_cast<int>(route.routers.size()) - 1;
  }
};

static_assert(sizeof(Packet) == 128, "Packet must be exactly two cache lines");
static_assert(alignof(Packet) == 64, "Packet must start on a cache line");
static_assert(offsetof(Packet, route) == 52, "routers[0..5] must share the first line");

/// Index-based free-list pool: packet ids stay valid across vector growth.
/// With the inline-array Route a packet is one contiguous slab, so
/// steady-state operation allocates nothing per packet (the simulator
/// rewrites every field, including the route, on reuse).
class PacketPool {
 public:
  int alloc() {
    if (!free_.empty()) {
      const int id = free_.back();
      free_.pop_back();
      return id;
    }
    packets_.emplace_back();
    return static_cast<int>(packets_.size()) - 1;
  }

  void release(int id) { free_.push_back(id); }

  /// Returns every packet to the free list; used by NetworkSim::reset()
  /// between runs on the same instance.
  void recycle_all() {
    free_.resize(packets_.size());
    for (std::size_t i = 0; i < free_.size(); ++i) free_[i] = static_cast<int>(i);
  }

  /// Pre-sizes the slab and free list for an expected in-flight packet
  /// count, so a run's ramp-up does not grow the pool one packet at a time
  /// (NetworkSim sizes this from the topology's buffering capacity).
  void reserve(std::size_t n) {
    packets_.reserve(n);
    free_.reserve(n);
  }

  Packet& operator[](int id) { return packets_[id]; }
  const Packet& operator[](int id) const { return packets_[id]; }
  std::size_t capacity() const { return packets_.size(); }
  /// Slots the backing store can hold before reallocating.
  std::size_t reserved() const { return packets_.capacity(); }
  std::size_t in_use() const { return packets_.size() - free_.size(); }

 private:
  std::vector<Packet> packets_;
  std::vector<int> free_;
};

}  // namespace d2net
