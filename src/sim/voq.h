// Intrusive virtual-output-queue storage for the simulator hot path.
//
// A router's (input port, VC, output port) FIFO exists as a 24-byte
// VoqCell only while it holds a packet: the first push into an empty FIFO
// takes a cell from the simulator's VoqCellPool, and the cell goes back to
// the pool's LIFO free list as soon as its FIFO empties outside a ready
// list. VOQ memory therefore scales with buffered packets, not with
// routers x ports^2 x VCs. The live cells of one input VC form a singly
// linked list through VoqCell::next_sib, so a lookup by output port walks
// the few FIFOs that input VC currently feeds.
//
// Queue membership is threaded through the packet-pool slots themselves
// (Packet::vnext / Packet::eligible_at), so pushing or popping a packet
// never allocates and walking a queue is a chain of pool-slot loads. The
// cells that currently have an eligible head requesting an output port
// form that port's ready list — an intrusive singly-linked FIFO through
// VoqCell::next_ready whose pop-head / append-tail discipline reproduces
// the round-robin arbitration order of the previous deque-based
// implementation exactly (grant at position i == erase + rotate by i).
//
// The operations live here as free functions over (PacketPool, cell pool)
// so bench_micro_core can exercise them in isolation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "sim/packet.h"

namespace d2net {

/// One virtual output queue: FIFO of pooled packets plus its ready-list and
/// input-VC linkage. `router` / `in_port` / `vc` / `out` identify the FIFO
/// (written when the cell is taken from the pool), so a ready-list entry
/// alone tells the arbiter where to return credits, and a cell index
/// carried by an event can be checked against the FIFO it names.
struct VoqCell {
  std::int32_t head = -1;        ///< pool id of the queue head, -1 = empty
  std::int32_t tail = -1;        ///< pool id of the queue tail
  std::int32_t next_ready = -1;  ///< next cell index in the out-port ready list
  /// Next live cell of the same input VC, -1 = last; while the cell is
  /// free, the next cell of the pool's free list.
  std::int32_t next_sib = -1;
  std::int16_t in_port = 0;
  std::int16_t out = 0;
  std::uint8_t vc = 0;
  /// Head registered in the out port's ready list (mirror of the old
  /// per-output in_ready bitmap).
  std::uint8_t in_ready = 0;
  std::uint16_t router = 0;
};
static_assert(sizeof(VoqCell) == 24);

/// Index-based pool of VoqCells with a LIFO free list threaded through
/// VoqCell::next_sib. Cell indices stay valid across growth, but references
/// do not: re-index after any alloc().
class VoqCellPool {
 public:
  /// Takes a cell for the empty (in_port, vc, out) FIFO of `router`;
  /// linkage fields are reset, next_sib is left to the caller.
  std::int32_t alloc(int router, int in_port, int vc, int out) {
    std::int32_t ci = free_;
    if (ci >= 0) {
      free_ = cells_[ci].next_sib;
    } else {
      D2NET_REQUIRE(cells_.size() < static_cast<std::size_t>(INT32_MAX),
                    "VOQ cell count overflows 32-bit indexing");
      ci = static_cast<std::int32_t>(cells_.size());
      cells_.emplace_back();
    }
    VoqCell& cell = cells_[ci];
    cell.head = cell.tail = cell.next_ready = -1;
    cell.in_port = static_cast<std::int16_t>(in_port);
    cell.out = static_cast<std::int16_t>(out);
    cell.vc = static_cast<std::uint8_t>(vc);
    cell.in_ready = 0;
    cell.router = static_cast<std::uint16_t>(router);
    ++live_;
    return ci;
  }

  /// Returns an empty cell (already unlinked from its input VC's list).
  void release(std::int32_t ci) {
    D2NET_HOT_ASSERT(cells_[ci].head < 0, "releasing a non-empty VOQ cell");
    cells_[ci].next_sib = free_;
    free_ = ci;
    --live_;
  }

  /// Drops every cell, keeping the backing capacity (NetworkSim::reset()).
  void clear() {
    cells_.clear();
    free_ = -1;
    live_ = 0;
  }

  VoqCell& operator[](std::int32_t ci) { return cells_[ci]; }
  const VoqCell& operator[](std::int32_t ci) const { return cells_[ci]; }
  /// Cells ever taken since clear(): the peak number live at once.
  std::size_t size() const { return cells_.size(); }
  std::size_t live() const { return live_; }
  /// Head of the free list (-1 = empty), for the paranoid audit.
  std::int32_t free_head() const { return free_; }

 private:
  std::vector<VoqCell> cells_;
  std::int32_t free_ = -1;
  std::size_t live_ = 0;
};

/// Intrusive FIFO of VoqCells awaiting arbitration at one output port.
struct ReadyList {
  std::int32_t head = -1;  ///< cell index, -1 = empty
  std::int32_t tail = -1;
  std::int32_t count = 0;

  void clear() {
    head = tail = -1;
    count = 0;
  }
};

inline bool voq_empty(const VoqCell& cell) { return cell.head < 0; }

/// Appends `pkt_id` to the cell's FIFO; returns true when it became the new
/// head (the caller then schedules its eligibility event).
inline bool voq_push(PacketPool& pool, VoqCell& cell, int pkt_id, TimePs eligible_at) {
  Packet& pkt = pool[pkt_id];
  pkt.vnext = -1;
  pkt.eligible_at = eligible_at;
  const bool was_empty = cell.head < 0;
  if (was_empty) {
    cell.head = pkt_id;
  } else {
    pool[cell.tail].vnext = pkt_id;
  }
  cell.tail = pkt_id;
  return was_empty;
}

/// Pops and returns the FIFO head (the cell must be non-empty).
inline int voq_pop(PacketPool& pool, VoqCell& cell) {
  D2NET_HOT_ASSERT(cell.head >= 0, "voq_pop on empty VOQ");
  const int pkt_id = cell.head;
  cell.head = pool[pkt_id].vnext;
  if (cell.head < 0) cell.tail = -1;
  return pkt_id;
}

/// Appends cell `ci` to the ready list tail.
inline void ready_append(ReadyList& rl, VoqCellPool& cells, std::int32_t ci) {
  cells[ci].next_ready = -1;
  if (rl.head < 0) {
    rl.head = ci;
  } else {
    cells[rl.tail].next_ready = ci;
  }
  rl.tail = ci;
  ++rl.count;
}

/// Pops and returns the ready list head (must be non-empty).
inline std::int32_t ready_pop(ReadyList& rl, VoqCellPool& cells) {
  D2NET_HOT_ASSERT(rl.head >= 0, "ready_pop on empty ready list");
  const std::int32_t ci = rl.head;
  rl.head = cells[ci].next_ready;
  if (rl.head < 0) rl.tail = -1;
  --rl.count;
  return ci;
}

}  // namespace d2net
