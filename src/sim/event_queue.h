// Discrete-event core: a time-ordered queue with a deterministic
// (okey, seq) tie-break so identical seeds replay identical packet traces.
//
// The queue is a two-level bucketed near-future wheel in front of an
// overflow heap (calendar/ladder-queue style):
//
//  * Level 1 is a ring of 4096 buckets of 64 ps each, found through a
//    two-level 64x64 occupancy bitmap; level 2 is a ring of 64 buckets of
//    2^18 ps (~262 ns, exactly one full L1 span) each. Pops consume a
//    sorted "active bucket"; pushes are O(1) bucket appends except for a
//    push into the active bucket itself, which insertion-sorts into its
//    unconsumed tail. At paper scale (SF q=13, ~1.5 events dispatched per
//    ps) a 64 ps bucket holds tens of events over only 64 distinct times,
//    so a counting sort on the time offset orders it in linear time and any
//    such insert stays cheap.
//    Both rings store their events in one pool of fixed-size chunks with a
//    free list (a bucket is a chunk list), so the wheel holds about the
//    pending set plus one partial chunk per non-empty bucket, however the
//    load moves between buckets.
//
//  * Events beyond the ~16.8 us L2 horizon overflow into an implicit 4-ary
//    min-heap over a flat vector. The shallow tree halves the cache lines
//    touched per sift relative to std::priority_queue's binary heap, and
//    sifts move a hole instead of swapping, so each level moves one Event
//    instead of three.
//
// Every push builds its Event once, field by field, in the storage it will
// be popped from: its chunk slot, the gap it opens in the active bucket or
// its heap hole (slot_for()). An Event built on the stack and then copied
// in is reloaded straight after its mixed-width stores, and that load
// cannot be forwarded from them; at paper scale the stall was the engine's
// hottest instruction.
//
// The queue realizes the (time, okey, seq) total order exactly —
// tests/test_sweep_runner checks it against a reference heap, and
// tests/test_determinism_digest pins the FNV-1a digest of the dispatched
// event stream of the whole engine. The okey (ordering key) ranks
// same-time events by a content-derived identity instead of raw insertion
// order, which makes the realized order independent of *where* an event
// was pushed from. Two distinct pending events never tie on (time, okey)
// in-bounds (the key packs the event's full identity), so seq only orders
// byte-identical duplicates, whose relative order cannot matter.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace d2net {

enum class EventType : std::uint8_t {
  kGenerate,        ///< a = node: open-loop packet generation tick
  kNicFree,         ///< a = node: injection link finished serializing
  kArriveRouter,    ///< a = packet, b = router, c = in_port, d = vc
  /// a = VOQ cell, b = in_port, c = vc, d = out_port. The okey packs the
  /// router in a's place (okey_router() reads it back): like a pool slot,
  /// the cell index is allocator state, so neither the key nor the digest
  /// sees it, and the handler uses it only after checking the cell still
  /// holds this (router, in_port, vc, out_port) FIFO.
  kHeadEligible,
  kChannelFree,     ///< a = router, b = out_port
  kCreditToRouter,  ///< a = router, b = out_port, c = vc, d = bytes
  kCreditToNic,     ///< a = node, c = vc, d = bytes
  kArriveNode,      ///< a = packet, b = node
  /// Read-only buffer-occupancy sampling tick (metrics enabled only).
  /// Mutates nothing but the metric sinks and is excluded from
  /// events_processed, so enabling metrics cannot perturb a run.
  kMetricsSample,
  /// a = index into the sorted fault schedule (faults enabled only).
  kFault,
  /// a = packet: source re-injection attempt after a fault drop.
  kRetryInject,
  /// No-progress check tick. Like kMetricsSample it reads counters only,
  /// never touches the RNG and is excluded from events_processed, so the
  /// always-on watchdog cannot perturb a healthy run.
  kWatchdog,
  /// a = router, d = fault-schedule index (fault.propagation only): the
  /// router's missed-credit timeout fires and it learns about an attached
  /// fault, then originates a link-state flood.
  kFaultDetect,
  /// a = router, d = fault-schedule index (fault.propagation only): a
  /// flooded link-state update reaches the router. Operands b and c are
  /// deliberately zero — duplicate deliveries of the same update at the
  /// same time fold identically into the digest regardless of arrival
  /// (seq) order, whatever neighbor sent them.
  kFloodArrive,
};

struct Event {
  TimePs time = 0;
  /// Content-derived ordering key: primary tie-break at equal times (see
  /// pack_event_okey / the file comment). High byte is the EventType.
  std::uint64_t okey = 0;
  std::uint64_t seq = 0;  ///< insertion order; final FIFO tie-break
  EventType type{};
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
};

/// Ordering key for events whose operands are stable entity identities
/// (everything except the packet-carrying kinds, whose `a` is a pool slot;
/// kHeadEligible passes its router as `a`, not its cell):
/// type:8 | a:22 | b:12 | c:4 | d:18. Out-of-range operands merely alias keys
/// and fall back to the (still deterministic) seq tie-break.
inline std::uint64_t pack_event_okey(EventType type, std::int32_t a, std::int32_t b,
                                     std::int32_t c, std::int32_t d) {
  return (static_cast<std::uint64_t>(type) << 56) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) & 0x3FFFFFu) << 34) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)) & 0xFFFu) << 22) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)) & 0xFu) << 18) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d)) & 0x3FFFFu);
}

/// Operand `a` of an identity-operand okey (bits 34-55): the router of a
/// kHeadEligible event, whose own `a` holds its VOQ cell.
inline std::int32_t okey_router(std::uint64_t okey) {
  return static_cast<std::int32_t>((okey >> 34) & 0x3FFFFFu);
}

/// Ordering key for packet-carrying events (kArriveRouter, kArriveNode,
/// kRetryInject): the packet's pool-independent uid replaces the operand
/// pack, so the key does not depend on which pool slot holds the packet.
inline std::uint64_t pack_packet_okey(EventType type, std::uint64_t uid) {
  return (static_cast<std::uint64_t>(type) << 56) | (uid & 0x00FFFFFFFFFFFFFFull);
}

class EventQueue {
 public:
  // Wheel geometry. W2 == kL1Buckets * W1, so expanding one L2 bucket fills
  // exactly one full L1 ring span. Public so tests can aim pushes at the
  // tier boundaries and state the memory bound: pool_slots() never exceeds
  // the pending high-water mark plus one chunk per bucket (and one chunk in
  // transit during an L2 expansion).
  static constexpr std::size_t kL1Buckets = 4096;
  static constexpr std::size_t kL2Buckets = 64;
  static constexpr std::size_t kChunkEvents = 16;  ///< events per pool chunk
  static constexpr int kL1Shift = 6;   ///< W1 = 2^6 ps = 64 ps
  static constexpr int kL2Shift = 18;  ///< W2 = 2^18 ps ~ 262 ns
  static constexpr TimePs kW1 = TimePs{1} << kL1Shift;
  static constexpr TimePs kW2 = TimePs{1} << kL2Shift;
  static constexpr TimePs kL2Span = kW2 * static_cast<TimePs>(kL2Buckets);

  /// Convenience push for identity-operand events (computes the okey).
  void push(TimePs time, EventType type, std::int32_t a = 0, std::int32_t b = 0,
            std::int32_t c = 0, std::int32_t d = 0) {
    push_keyed(time, pack_event_okey(type, a, b, c, d), type, a, b, c, d);
  }

  void push_keyed(TimePs time, std::uint64_t okey, EventType type, std::int32_t a = 0,
                  std::int32_t b = 0, std::int32_t c = 0, std::int32_t d = 0) {
    const std::uint64_t seq = next_seq_++;
    ++size_;
    Event& e = slot_for(time, okey, seq);  // built in place: see the file comment
    e.time = time;
    e.okey = okey;
    e.seq = seq;
    e.type = type;
    e.a = a;
    e.b = b;
    e.c = c;
    e.d = d;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  Event pop() {
    D2NET_HOT_ASSERT(size_ > 0, "pop() on empty EventQueue");
    --size_;
    if (cur_pos_ >= cur_.size()) advance();
    return cur_[cur_pos_++];
  }

  /// Earliest pending event time. Non-const because the wheel may need to
  /// surface the next bucket first (pure scheduling work, no observable
  /// state change).
  TimePs next_time() {
    D2NET_HOT_ASSERT(size_ > 0, "next_time() on empty EventQueue");
    if (cur_pos_ >= cur_.size()) advance();
    return cur_[cur_pos_].time;
  }

  /// Pre-sizes the chunk pool's index (one sim reuses the queue across
  /// runs); the overflow heap grows on demand, as it holds only events
  /// beyond the L2 horizon.
  void reserve(std::size_t n) {
    const std::size_t chunks = n / kChunkEvents + 1;
    chunks_.reserve(chunks);
    next_.reserve(chunks);
  }

  /// Event slots carved into the wheel's chunk pool (in use or free).
  std::size_t pool_slots() const { return chunks_.size() * kChunkEvents; }

  /// Event slots the queue holds without reallocating: heap capacity, the
  /// active bucket's capacity and the chunk pool.
  /// Exposed through EngineCapacities.
  std::size_t reserved() const { return heap_.capacity() + cur_.capacity() + pool_slots(); }

  /// Drops all pending events but keeps the allocated capacity and the
  /// monotone sequence counter (seq only ever breaks same-time ties, so
  /// continuing it across runs cannot change any ordering).
  void clear() {
    heap_.clear();
    cur_.clear();
    cur_pos_ = 0;
    if (!chunks_.empty()) {
      std::fill(l1_.begin(), l1_.end(), Bucket{});
      std::fill(l2_.begin(), l2_.end(), Bucket{});
      l1_bits_.fill(0);
      l1_summary_ = 0;
      l2_mask_ = 0;
      // Every carved chunk goes back on the free list.
      for (std::size_t c = 0; c + 1 < next_.size(); ++c) {
        next_[c] = static_cast<std::uint32_t>(c + 1);
      }
      next_.back() = kNil;
      free_ = 0;
    }
    l1_start_ = l1_limit_ = l2_start_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static_assert(kW2 == kW1 * static_cast<TimePs>(kL1Buckets));
  static_assert(kL1Buckets == 64 * 64, "two-level 64x64 L1 occupancy bitmap");
  static_assert(kL2Buckets == 64, "one-word L2 occupancy mask");

  static constexpr std::uint32_t kNil = UINT32_MAX;
  using Chunk = std::array<Event, kChunkEvents>;

  /// A wheel bucket: a singly linked list of pool chunks, filled in push
  /// order, where only the tail chunk may be partially filled.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t n = 0;  ///< events held
  };

  static bool before(TimePs time, std::uint64_t okey, std::uint64_t seq, const Event& y) {
    if (time != y.time) return time < y.time;
    if (okey != y.okey) return okey < y.okey;
    return seq < y.seq;
  }
  static bool before(const Event& x, const Event& y) { return before(x.time, x.okey, x.seq, y); }

  static std::size_t l1_bucket(TimePs t) {
    return static_cast<std::size_t>(t >> kL1Shift) & (kL1Buckets - 1);
  }
  static std::size_t l1_offset(TimePs t) {  ///< time offset within its L1 bucket
    return static_cast<std::size_t>(t) & static_cast<std::size_t>(kW1 - 1);
  }
  static std::size_t l2_bucket(TimePs t) {
    return static_cast<std::size_t>(t >> kL2Shift) & (kL2Buckets - 1);
  }

  /// First set ring position at or after `from` (ring order), or npos.
  static std::size_t next_set_bit(std::uint64_t mask, std::size_t from) {
    const std::uint64_t rotated = std::rotr(mask, static_cast<int>(from));
    if (rotated == 0) return static_cast<std::size_t>(-1);
    return (from + static_cast<std::size_t>(std::countr_zero(rotated))) % 64;
  }

  /// The storage a new (time, okey, seq) event is popped from: the gap it
  /// opens in the active bucket, its L1 or L2 chunk slot, or its heap hole.
  /// The caller writes every field.
  Event& slot_for(TimePs time, std::uint64_t okey, std::uint64_t seq) {
    // Only pops move the windows (advance()), never a push: anchoring an
    // empty queue at a push's time would route every earlier-timed push
    // that follows it (NetworkSim's start-up generator ticks) into the
    // active bucket's sorted insert.
    if (time < l1_start_) {
      // Lands in (or before) the active bucket: insertion-sort into the
      // unconsumed tail. Searching from cur_pos_ clamps an event that would
      // sort before already-consumed entries (a same-time push with a
      // smaller okey than the event being dispatched) to "popped next" —
      // exactly where a plain min-heap would surface it, since every
      // already-consumed entry was the minimum of the pending set when it
      // was popped.
      const auto pos = std::upper_bound(
          cur_.begin() + static_cast<std::ptrdiff_t>(cur_pos_), cur_.end(), time,
          [&](TimePs t, const Event& y) { return before(t, okey, seq, y); });
      return *cur_.insert(pos, Event{});
    }
    if (time < l1_limit_) return l1_slot(time);
    if (time < l2_start_ + kL2Span) return l2_slot(time);
    return heap_slot(time, okey, seq);
  }

  // --- heap primitives (hole-based sifts: one Event moved per level) ---

  /// Sifts a hole up from a new last element to where (time, okey, seq)
  /// belongs and returns it.
  Event& heap_slot(TimePs time, std::uint64_t okey, std::uint64_t seq) {
    heap_.emplace_back();
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(time, okey, seq, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    return heap_[i];
  }

  /// Moves the heap's minimum into `out` (storage outside heap_).
  void pop_heap(Event& out) {
    out = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = kArity * i + 1;
        if (first >= n) break;
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
  }

  // --- chunk pool ---

  std::uint32_t alloc_chunk() {
    if (free_ != kNil) {
      const std::uint32_t c = free_;
      free_ = next_[c];
      return c;
    }
    chunks_.emplace_back();
    next_.push_back(kNil);
    return static_cast<std::uint32_t>(chunks_.size() - 1);
  }

  /// Reserves the next slot of a bucket, the one slot-reserving primitive of
  /// both rings. The returned reference is valid only until the next
  /// alloc_chunk(), which may reallocate chunks_: a caller copying an event
  /// out of another chunk must index it again after this call.
  Event& reserve_slot(Bucket& bk) {
    const std::size_t slot = bk.n % kChunkEvents;
    if (slot == 0) {
      const std::uint32_t c = alloc_chunk();
      if (bk.n == 0) {
        bk.head = c;
      } else {
        next_[bk.tail] = c;
      }
      bk.tail = c;
    }
    ++bk.n;
    return chunks_[bk.tail][slot];
  }

  /// Calls `sink(chunk, count)` for each chunk of a bucket in push order.
  /// The successor is read first, so the sink may free the chunk.
  template <typename Sink>
  void visit_chunks(const Bucket& bk, Sink&& sink) {
    std::uint32_t c = bk.head;
    for (std::uint32_t left = bk.n; left > 0;) {
      const auto count = static_cast<std::uint32_t>(std::min<std::size_t>(left, kChunkEvents));
      const std::uint32_t next = next_[c];
      sink(c, count);
      left -= count;
      c = next;
    }
  }

  /// visit_chunks(), returning each chunk to the pool once the sink has read
  /// it; leaves the bucket empty.
  template <typename Sink>
  void drain_bucket(Bucket& bk, Sink&& sink) {
    visit_chunks(bk, [&](std::uint32_t c, std::uint32_t count) {
      sink(c, count);
      next_[c] = free_;
      free_ = c;
    });
    bk = Bucket{};
  }

  /// Moves L1 bucket `b` into cur_ in (time, okey, seq) order. Its events
  /// span only kW1 distinct times, so a counting sort on the time offset
  /// within the bucket does most of the work in two linear passes; the
  /// insertion sort after it only has to order same-time runs.
  void take_l1(std::size_t b) {
    Bucket& bk = l1_[b];
    std::array<std::uint32_t, kW1> at{};  // per-offset counts, then slots
    visit_chunks(bk, [&](std::uint32_t c, std::uint32_t count) {
      for (std::uint32_t i = 0; i < count; ++i) ++at[l1_offset(chunks_[c][i].time)];
    });
    std::uint32_t slot = 0;
    for (std::uint32_t& a : at) slot += std::exchange(a, slot);
    cur_.resize(bk.n);
    cur_pos_ = 0;
    drain_bucket(bk, [&](std::uint32_t c, std::uint32_t count) {
      for (std::uint32_t i = 0; i < count; ++i) {
        const Event& e = chunks_[c][i];
        cur_[at[l1_offset(e.time)]++] = e;
      }
    });
    for (std::size_t i = 1; i < cur_.size(); ++i) {
      if (!before(cur_[i], cur_[i - 1])) continue;
      const Event e = cur_[i];
      std::size_t j = i;
      do {
        cur_[j] = cur_[j - 1];
        --j;
      } while (j > 0 && before(e, cur_[j - 1]));
      cur_[j] = e;
    }
  }

  // --- wheel machinery ---

  // The L1 window [l1_start_, l1_limit_) always lies inside the one
  // W2-aligned span that ends at l1_limit_, so L1 ring positions never wrap:
  // the lowest occupied position is the earliest bucket.
  Event& l1_slot(TimePs time) {
    const std::size_t b = l1_bucket(time);
    Bucket& bk = l1_[b];
    if (bk.n == 0) {
      l1_bits_[b >> 6] |= std::uint64_t{1} << (b & 63);
      l1_summary_ |= std::uint64_t{1} << (b >> 6);
    }
    return reserve_slot(bk);
  }

  Event& l2_slot(TimePs time) {
    const std::size_t b = l2_bucket(time);
    l2_mask_ |= std::uint64_t{1} << b;
    return reserve_slot(l2_[b]);
  }

  /// Re-anchors the (empty) wheel windows around the first pending time.
  void reanchor(TimePs t) {
    cur_.clear();
    cur_pos_ = 0;
    l1_start_ = (t >> kL1Shift) << kL1Shift;
    l1_limit_ = ((t >> kL2Shift) + 1) << kL2Shift;
    l2_start_ = l1_limit_;
  }

  /// Makes cur_[cur_pos_] the globally earliest pending event. Called only
  /// with size_ accounting for at least one pending event.
  void advance() {
    for (;;) {
      if (l1_summary_ != 0) {
        const std::size_t w = static_cast<std::size_t>(std::countr_zero(l1_summary_));
        const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(l1_bits_[w]));
        D2NET_HOT_ASSERT(b >= l1_bucket(l1_start_), "l1 bucket behind the window");
        l1_bits_[w] &= l1_bits_[w] - 1;
        if (l1_bits_[w] == 0) l1_summary_ &= ~(std::uint64_t{1} << w);
        take_l1(b);
        l1_start_ = l1_limit_ - kW2 + static_cast<TimePs>(b + 1) * kW1;
        return;
      }
      l1_start_ = l1_limit_;  // L1 empty: its window closes at the L2 boundary
      if (l2_mask_ != 0) {
        const std::size_t b = next_set_bit(l2_mask_, l2_bucket(l2_start_));
        D2NET_HOT_ASSERT(b != static_cast<std::size_t>(-1), "l2 mask empty");
        l2_mask_ &= ~(std::uint64_t{1} << b);
        const std::size_t from = l2_bucket(l2_start_);
        const std::size_t steps = (b + kL2Buckets - from) % kL2Buckets;
        const TimePs bucket_start = l2_start_ + static_cast<TimePs>(steps) * kW2;
        // Expand this W2 region across the L1 ring, then slide the L2
        // window past it and pull any heap events the wider window now
        // covers.
        l1_start_ = bucket_start;
        l1_limit_ = bucket_start + kW2;
        drain_bucket(l2_[b], [this](std::uint32_t c, std::uint32_t count) {
          for (std::uint32_t i = 0; i < count; ++i) {
            Event& dst = l1_slot(chunks_[c][i].time);
            dst = chunks_[c][i];  // re-indexed: l1_slot() may move chunks_
          }
        });
        l2_start_ = l1_limit_;
        drain_heap_into_l2();
        continue;
      }
      // Both rings empty: re-anchor at the heap's earliest event.
      D2NET_HOT_ASSERT(!heap_.empty(), "advance() with no pending events");
      reanchor(heap_.front().time);
      drain_heap_into_l2_and_l1();
    }
  }

  void drain_heap_into_l2() {
    const TimePs limit = l2_start_ + kL2Span;
    while (!heap_.empty() && heap_.front().time < limit) {
      pop_heap(l2_slot(heap_.front().time));
    }
  }

  void drain_heap_into_l2_and_l1() {
    while (!heap_.empty() && heap_.front().time < l1_limit_) {
      pop_heap(l1_slot(heap_.front().time));
    }
    drain_heap_into_l2();
  }

  std::size_t size_ = 0;
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;

  // Wheel state. cur_ is the sorted active bucket with consume index
  // cur_pos_; the L1 ring covers [l1_start_, l1_limit_), the L2 ring
  // [l2_start_, l2_start_ + kL2Span), the heap everything beyond. Both
  // rings keep their events in chunks_, a pool of fixed-size chunks whose
  // free list is threaded through next_ from free_.
  std::vector<Event> cur_;
  std::size_t cur_pos_ = 0;
  std::vector<Bucket> l1_ = std::vector<Bucket>(kL1Buckets);
  std::vector<Bucket> l2_ = std::vector<Bucket>(kL2Buckets);
  std::array<std::uint64_t, kL1Buckets / 64> l1_bits_{};  ///< occupied L1 buckets
  std::uint64_t l1_summary_ = 0;  ///< bit w set iff l1_bits_[w] != 0
  std::uint64_t l2_mask_ = 0;
  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> next_;  ///< chunk successor (bucket list or free list)
  std::uint32_t free_ = kNil;
  TimePs l1_start_ = 0;
  TimePs l1_limit_ = 0;
  TimePs l2_start_ = 0;
};

}  // namespace d2net
