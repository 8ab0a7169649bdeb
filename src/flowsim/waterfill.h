// Max-min-fair rate assignment by progressive water-filling.
//
// FlowTable is the engine's flow/link incidence structure: a fixed-stride
// slab of link slots per flow (flow -> links) threaded through intrusive
// doubly-linked membership lists (link -> flows). Every operation the hot
// path needs — create, destroy, iterate a link's flows — is O(1) or O(flow
// links), with no per-event allocation after warm-up.
//
// Progressive filling keeps an indexed binary min-heap with one entry per
// link, keyed on (fill ratio, link id). Freezing a flow updates each of its
// links in place (a ratio only rises as flows freeze, up to rounding), and
// a link with no unfrozen flows leaves the heap, so a pass does one heap
// operation per (frozen flow, link) and nothing more.
//
// Two recompute entry points:
//
// - waterfill_from() recomputes exact max-min rates for the connected
//   component(s) of the flow-link sharing graph reachable from a set of
//   seed links. Components are independent under max-min fairness, so this
//   reproduces the global fixed point. Batched rate ticks, the exchange
//   set-up (waterfill_all) and the repair's fallback use it. In a
//   diameter-two network at moderate load the sharing graph percolates and
//   the "component" is the whole network.
// - repair_from() is the exact-mode path run after every flow arrival or
//   departure. It re-fills only a free flow set — at first the flows on the
//   seed links — with every other flow held at its rate, then checks the
//   max-min bottleneck certificate on every link the free flows touch.
//   Each violator frees only what it needs: a fixed violator joins the free
//   set itself, and a free violator frees the fixed flows on its links that
//   run faster than it. The fill then repeats; when the certificate holds,
//   the allocation is the unique max-min fixed point. A repair that stops
//   making progress, or grows past the cost of a component recompute,
//   falls back to waterfill_from (see docs/flow_engine.md).
//
// Determinism: the fill heap orders by (fill ratio, link id) with exact
// double comparison, and membership lists are walked in their
// deterministic insertion order, so recomputing the same flow set always
// freezes flows in the same order and reproduces bit-identical rates.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "flowsim/flow_graph.h"

namespace d2net::flowsim {

/// Flow/link incidence plus per-flow rate and remaining-byte state. All
/// members are engine-internal; FlowSim and the waterfill functions are the
/// only clients.
struct FlowTable {
  int num_links = 0;
  int active = 0;

  // Per flow id.
  std::vector<double> rate;       ///< current max-min rate (1.0 = line rate)
  std::vector<double> remaining;  ///< bytes left to deliver
  std::vector<std::int16_t> nlinks;
  std::vector<std::uint8_t> in_use;
  /// A link that certifies the flow's rate: saturated, with no flow on it
  /// faster than this one. Set by every recompute; -1 until the first.
  std::vector<std::int32_t> bottleneck;

  // Per flow-link slot (flow * kMaxLinksPerFlow + i, i < nlinks[flow]).
  std::vector<std::int32_t> slot_link;
  std::vector<std::int32_t> slot_next;  ///< next slot on the link's list, -1 = end
  std::vector<std::int32_t> slot_prev;  ///< previous slot, -1 = list head

  // Per link id.
  std::vector<std::int32_t> link_head;    ///< first member slot, -1 = empty
  std::vector<std::int32_t> link_nflows;  ///< flows currently crossing the link

  std::vector<std::int32_t> free_list;

  /// Clears all flows and sizes the per-link arrays.
  void reset(int links);

  /// Registers a flow over `n` distinct links with `bytes` to deliver and
  /// rate 0; returns its id (slab slots are recycled via the free list).
  int create(const std::int32_t* links, int n, double bytes);

  /// Unlinks the flow from all membership lists and recycles its id.
  void destroy(int flow);

  /// Flow id upper bound (for sizing parallel per-flow arrays).
  int capacity() const { return static_cast<int>(rate.size()); }
};

/// Receives every rate change a waterfill pass decides. The sink is called
/// with the *new* rate while FlowTable still holds the old one, and is
/// responsible for writing the new rate back (after accruing delivered
/// bytes at the old rate — see FlowSim::on_rate_change). Flows whose
/// recomputed rate is bit-identical to the current one are not reported.
class RateChangeSink {
 public:
  virtual ~RateChangeSink() = default;
  virtual void on_rate_change(int flow, double new_rate) = 0;
};

/// One fill-heap entry: a link and its current fair share.
struct FillEntry {
  double ratio;  ///< remaining capacity / unfrozen flows
  std::int32_t link;
};

/// Epoch-stamped scratch reused across waterfill passes; never shrinks.
struct WaterfillScratch {
  std::vector<std::uint32_t> link_mark;
  std::vector<std::uint32_t> flow_mark;    ///< component (or free-set) membership
  std::vector<std::uint32_t> flow_frozen;  ///< frozen during the current pass
  std::uint32_t epoch = 0;
  std::vector<double> rem_cap;
  std::vector<std::int32_t> unfrozen;
  std::vector<std::int32_t> links;      ///< collected component (or touched) links
  std::vector<std::int32_t> flows;      ///< collected component (or free) flows
  std::vector<FillEntry> heap;          ///< indexed min-heap on (ratio, link id)
  std::vector<std::int32_t> heap_slot;  ///< link -> heap index, -1 between passes

  // repair_from only.
  std::vector<std::uint32_t> stat_mark;   ///< rem_cap/link_max final this round (round epoch)
  std::vector<std::uint32_t> cert_mark;   ///< flow certified this round
  std::vector<double> link_max;           ///< fastest flow on the link
  std::vector<double> tent_rate;          ///< free flow's filled rate
  std::vector<std::int32_t> tent_bottleneck;
  std::vector<std::int32_t> freed;        ///< flows the violators free for the next round
  std::vector<std::pair<std::int32_t, std::int32_t>> rebind;  ///< (flow, new bottleneck)

  void ensure(int num_links, int flow_capacity);
};

/// Exact progressive water-filling over the component(s) reachable from
/// `seeds` (deduplicated internally; links without flows are fine). Every
/// rate change is reported through `sink`.
void waterfill_from(FlowTable& table, const std::int32_t* seeds, int nseeds,
                    WaterfillScratch& ws, RateChangeSink& sink);

/// Full recompute over every active flow (seed = all non-empty links).
void waterfill_all(FlowTable& table, WaterfillScratch& ws, RateChangeSink& sink);

/// What one repair_from call cost.
struct RepairResult {
  std::int64_t flows_touched = 0;  ///< free flows over all rounds, plus the fallback's component
  std::int64_t rounds = 0;         ///< fill rounds run (the fallback's recompute not counted)
  bool fell_back = false;          ///< finished by waterfill_from
};

/// Local max-min repair after the flows on `seeds` changed (arrivals
/// created with rate 0, departures already destroyed). Requires every
/// other flow to hold its max-min rate and a valid FlowTable::bottleneck,
/// which every recompute maintains. Reaches the same fixed point as
/// waterfill_from up to rounding; a rate whose change is within rounding
/// (1e-13 of line rate) keeps its old value and is not reported.
RepairResult repair_from(FlowTable& table, const std::int32_t* seeds, int nseeds,
                         WaterfillScratch& ws, RateChangeSink& sink);

}  // namespace d2net::flowsim
