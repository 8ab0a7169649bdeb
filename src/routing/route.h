// Route representation shared by the routing algorithms and the simulator.
//
// Routing decisions are made once, at injection, at the source router
// (paper Section 3.3, local UGAL); the chosen router path and the per-hop
// virtual channels travel with the packet.
//
// Storage is a fixed inline array rather than two heap vectors: a route is
// one contiguous slab inside the pooled Packet, so building or copying one
// never allocates and the simulator's per-hop reads are offset loads from
// the packet's own cache lines. Diameter-2 routes need at most 5 routers
// (2 + 2 hops through a Valiant intermediate, plus slack); the capacity
// covers fault-salvaged detours too, whose length the simulator clamps via
// its hop limit (see NetworkSim::setup_faults). Route construction sites
// guard the capacity with D2NET_HOT_ASSERT — fatal in Debug/sanitizer
// builds — and cold entry points (make_routing, fault setup) check it with
// always-on requires.
//
// Router ids are stored as 16 bits and each InlineVec keeps a one-byte
// count, so a Route is 76 bytes and fits the 128-byte Packet. make_routing
// and the NetworkSim constructor therefore require at most 65,536 routers
// (kMaxRouterIds).
#pragma once

#include <cstdint>
#include <initializer_list>

#include "common/error.h"

namespace d2net {

/// Fixed-capacity inline vector with the small slice of the std::vector
/// interface the routing code uses. Trivially copyable when T is. The count
/// is one byte, so N is at most 255.
template <typename T, int N>
class InlineVec {
  static_assert(N >= 0 && N <= 255, "InlineVec stores its count in one byte");

 public:
  using value_type = T;

  InlineVec() = default;
  InlineVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  InlineVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  static constexpr int capacity() { return N; }
  std::size_t size() const { return static_cast<std::size_t>(size_); }
  bool empty() const { return size_ == 0; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void push_back(T v) {
    D2NET_HOT_ASSERT(size_ < N, "InlineVec overflow");
    data_[size_++] = v;
  }

  /// Shrinks or zero-fill-grows to n (vector::resize semantics).
  void resize(std::size_t n) {
    D2NET_HOT_ASSERT(n <= static_cast<std::size_t>(N), "InlineVec overflow");
    for (int i = size_; i < static_cast<int>(n); ++i) data_[i] = T{};
    size_ = static_cast<std::uint8_t>(n);
  }

  void assign(std::size_t n, T v) {
    D2NET_HOT_ASSERT(n <= static_cast<std::size_t>(N), "InlineVec overflow");
    size_ = static_cast<std::uint8_t>(n);
    for (int i = 0; i < size_; ++i) data_[i] = v;
  }
  // Exact-match overload so assign(1, x) does not fall into the iterator
  // template below.
  void assign(int n, T v) { assign(static_cast<std::size_t>(n), v); }

  template <typename It>
  void assign(It first, It last) {
    clear();
    append(first, last);
  }

  /// Appends [first, last) — the only insert position the routing code
  /// uses is end().
  template <typename It>
  void append(It first, It last) {
    for (; first != last; ++first) push_back(static_cast<T>(*first));
  }

 private:
  T data_[N];
  std::uint8_t size_ = 0;
};

struct Route {
  /// Inline capacity in routers. Valiant on a diameter-D topology needs
  /// 2D + 1; fault salvage stretches routes further but is clamped to
  /// kMaxHops by the simulator's hop limit. 24 leaves generous slack for
  /// every studied network (diameter 2) and the small synthetic test
  /// topologies (diameter <= 5).
  static constexpr int kMaxRouters = 24;
  static constexpr int kMaxHops = kMaxRouters - 1;
  /// Router ids are stored as uint16_t: a routed topology has at most this
  /// many routers.
  static constexpr int kMaxRouterIds = 1 << 16;

  /// Routers visited, source first, destination last. A route within a
  /// single router has size 1 and no hops.
  InlineVec<std::uint16_t, kMaxRouters> routers;
  /// vcs[i] is the virtual channel used on the link routers[i]->routers[i+1];
  /// size == routers.size() - 1.
  InlineVec<std::uint8_t, kMaxHops> vcs;
  /// Index into `routers` of the Valiant intermediate, or -1 for a minimal
  /// route.
  std::int8_t intermediate_pos = -1;

  int hops() const { return static_cast<int>(routers.size()) - 1; }
  bool minimal() const { return intermediate_pos < 0; }
};

}  // namespace d2net
