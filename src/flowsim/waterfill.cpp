#include "flowsim/waterfill.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace d2net::flowsim {

void FlowTable::reset(int links) {
  num_links = links;
  active = 0;
  rate.clear();
  remaining.clear();
  nlinks.clear();
  in_use.clear();
  bottleneck.clear();
  slot_link.clear();
  slot_next.clear();
  slot_prev.clear();
  link_head.assign(static_cast<std::size_t>(links), -1);
  link_nflows.assign(static_cast<std::size_t>(links), 0);
  free_list.clear();
}

int FlowTable::create(const std::int32_t* links, int n, double bytes) {
  D2NET_HOT_ASSERT(n >= 1 && n <= kMaxLinksPerFlow, "flow link count out of range");
  int f;
  if (!free_list.empty()) {
    f = free_list.back();
    free_list.pop_back();
  } else {
    f = static_cast<int>(rate.size());
    rate.push_back(0.0);
    remaining.push_back(0.0);
    nlinks.push_back(0);
    in_use.push_back(0);
    bottleneck.push_back(-1);
    slot_link.resize(slot_link.size() + kMaxLinksPerFlow, -1);
    slot_next.resize(slot_next.size() + kMaxLinksPerFlow, -1);
    slot_prev.resize(slot_prev.size() + kMaxLinksPerFlow, -1);
  }
  rate[static_cast<std::size_t>(f)] = 0.0;
  remaining[static_cast<std::size_t>(f)] = bytes;
  nlinks[static_cast<std::size_t>(f)] = static_cast<std::int16_t>(n);
  in_use[static_cast<std::size_t>(f)] = 1;
  bottleneck[static_cast<std::size_t>(f)] = -1;
  ++active;
  const int base = f * kMaxLinksPerFlow;
  for (int i = 0; i < n; ++i) {
    const std::int32_t l = links[i];
    const int s = base + i;
    slot_link[static_cast<std::size_t>(s)] = l;
    slot_prev[static_cast<std::size_t>(s)] = -1;
    const std::int32_t head = link_head[static_cast<std::size_t>(l)];
    slot_next[static_cast<std::size_t>(s)] = head;
    if (head >= 0) slot_prev[static_cast<std::size_t>(head)] = s;
    link_head[static_cast<std::size_t>(l)] = s;
    ++link_nflows[static_cast<std::size_t>(l)];
  }
  return f;
}

void FlowTable::destroy(int flow) {
  D2NET_HOT_ASSERT(in_use[static_cast<std::size_t>(flow)], "destroying a dead flow");
  const int base = flow * kMaxLinksPerFlow;
  for (int i = 0; i < nlinks[static_cast<std::size_t>(flow)]; ++i) {
    const int s = base + i;
    const std::int32_t l = slot_link[static_cast<std::size_t>(s)];
    const std::int32_t prev = slot_prev[static_cast<std::size_t>(s)];
    const std::int32_t next = slot_next[static_cast<std::size_t>(s)];
    if (prev >= 0) {
      slot_next[static_cast<std::size_t>(prev)] = next;
    } else {
      link_head[static_cast<std::size_t>(l)] = next;
    }
    if (next >= 0) slot_prev[static_cast<std::size_t>(next)] = prev;
    --link_nflows[static_cast<std::size_t>(l)];
  }
  in_use[static_cast<std::size_t>(flow)] = 0;
  nlinks[static_cast<std::size_t>(flow)] = 0;
  rate[static_cast<std::size_t>(flow)] = 0.0;
  free_list.push_back(flow);
  --active;
}

void WaterfillScratch::ensure(int num_links, int flow_capacity) {
  if (static_cast<int>(link_mark.size()) < num_links) {
    const std::size_t n = static_cast<std::size_t>(num_links);
    link_mark.resize(n, 0);
    rem_cap.resize(n, 0.0);
    unfrozen.resize(n, 0);
    heap_slot.resize(n, -1);
    stat_mark.resize(n, 0);
    link_max.resize(n, 0.0);
  }
  if (static_cast<int>(flow_mark.size()) < flow_capacity) {
    const std::size_t n = static_cast<std::size_t>(flow_capacity);
    flow_mark.resize(n, 0);
    flow_frozen.resize(n, 0);
    cert_mark.resize(n, 0);
    tent_rate.resize(n, 0.0);
    tent_bottleneck.resize(n, -1);
  }
  // A repair takes one epoch for its free set and one per round, and every
  // round but the last grows the free set by at least one flow, so
  // max(num_links, flow_capacity) + 2 epochs of headroom keep one call from
  // wrapping.
  const std::uint32_t headroom =
      static_cast<std::uint32_t>(std::max(num_links, flow_capacity)) + 2;
  if (epoch >= std::numeric_limits<std::uint32_t>::max() - headroom) {
    for (auto* marks : {&link_mark, &flow_mark, &flow_frozen, &stat_mark, &cert_mark}) {
      std::fill(marks->begin(), marks->end(), 0);
    }
    epoch = 0;
  }
}

namespace {
// Indexed binary min-heap over ws.heap on (fill ratio, link id), the link
// id a deterministic tie-break; ws.heap_slot maps each link in the heap to
// its index and every other link to -1.
class FillHeap {
 public:
  explicit FillHeap(WaterfillScratch& ws) : h_(ws.heap), slot_(ws.heap_slot) {}

  /// Heapifies the entries the caller appended to ws.heap, one per link.
  void build() {
    const std::size_t n = h_.size();
    for (std::size_t i = 0; i < n; ++i) {
      slot_[static_cast<std::size_t>(h_[i].link)] = static_cast<std::int32_t>(i);
    }
    for (std::size_t i = n / 2; i-- > 0;) sift_down(i, h_[i]);
  }

  bool empty() const { return h_.empty(); }

  FillEntry pop() {
    const FillEntry top = h_.front();
    slot_[static_cast<std::size_t>(top.link)] = -1;
    const FillEntry last = h_.back();
    h_.pop_back();
    if (!h_.empty()) sift_down(0, last);
    return top;
  }

  bool contains(std::int32_t link) const { return slot_[static_cast<std::size_t>(link)] >= 0; }

  /// Re-keys a link in the heap.
  void update(std::int32_t link, double ratio) {
    const std::size_t i = static_cast<std::size_t>(slot_[static_cast<std::size_t>(link)]);
    const FillEntry e{ratio, link};
    // Ratios rise as flows freeze; rounding can lower one by an ulp.
    if (ratio < h_[i].ratio) {
      sift_up(i, e);
    } else {
      sift_down(i, e);
    }
  }

  /// Takes a link out of the heap.
  void remove(std::int32_t link) {
    const std::size_t i = static_cast<std::size_t>(slot_[static_cast<std::size_t>(link)]);
    slot_[static_cast<std::size_t>(link)] = -1;
    const FillEntry last = h_.back();
    h_.pop_back();
    if (i == h_.size()) return;
    if (less(last, h_[i])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  /// Empties the heap, leaving every link's slot at -1.
  void clear() {
    for (const FillEntry& e : h_) slot_[static_cast<std::size_t>(e.link)] = -1;
    h_.clear();
  }

 private:
  static bool less(const FillEntry& a, const FillEntry& b) {
    return a.ratio < b.ratio || (a.ratio == b.ratio && a.link < b.link);
  }

  void place(std::size_t i, const FillEntry& e) {
    h_[i] = e;
    slot_[static_cast<std::size_t>(e.link)] = static_cast<std::int32_t>(i);
  }

  // Moves `e` from hole `i` towards the root.
  void sift_up(std::size_t i, const FillEntry e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(e, h_[parent])) break;
      place(i, h_[parent]);
      i = parent;
    }
    place(i, e);
  }

  // Moves `e` from hole `i` towards the leaves.
  void sift_down(std::size_t i, const FillEntry e) {
    const std::size_t n = h_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(h_[child + 1], h_[child])) ++child;
      if (!less(h_[child], e)) break;
      place(i, h_[child]);
      i = child;
    }
    place(i, e);
  }

  std::vector<FillEntry>& h_;
  std::vector<std::int32_t>& slot_;
};

// Certificate tolerance: a link is saturated when its spare capacity is at
// most kCertEps, and a flow is the fastest on a link when no flow there is
// faster by more than kCertEps. A link sum of a few hundred rates rounds by
// ~1e-14, so this absorbs rounding, not a real rate gap.
constexpr double kCertEps = 1e-12;
// A recomputed rate within this distance (in line rates, the scale of
// every link sum) of the current one differs by rounding only: it keeps
// the old value, so the flow is not rescheduled and leaves no stale
// completion event behind.
constexpr double kRateTol = 1e-13;

bool differs_beyond_rounding(double a, double b) { return std::abs(a - b) > kRateTol; }

// Forwards only the rate changes that exceed rounding. Repaired rates and
// a fallback's full recompute reach the same values by different sums, so
// without this filter a fallback would reschedule every flow of the
// component it recomputes.
class RoundingFilterSink final : public RateChangeSink {
 public:
  RoundingFilterSink(const FlowTable& t, RateChangeSink& inner) : t_(t), inner_(inner) {}
  void on_rate_change(int flow, double new_rate) override {
    if (differs_beyond_rounding(new_rate, t_.rate[static_cast<std::size_t>(flow)])) {
      inner_.on_rate_change(flow, new_rate);
    }
  }

 private:
  const FlowTable& t_;
  RateChangeSink& inner_;
};

// Adds `f` to ws.flows and its links not yet seen to ws.links, once per
// epoch.
void collect_flow(const FlowTable& t, WaterfillScratch& ws, int f, std::uint32_t epoch) {
  if (ws.flow_mark[static_cast<std::size_t>(f)] == epoch) return;
  ws.flow_mark[static_cast<std::size_t>(f)] = epoch;
  ws.flows.push_back(f);
  const int base = f * kMaxLinksPerFlow;
  for (int j = 0; j < t.nlinks[static_cast<std::size_t>(f)]; ++j) {
    const std::int32_t m = t.slot_link[static_cast<std::size_t>(base + j)];
    if (ws.link_mark[static_cast<std::size_t>(m)] == epoch) continue;
    ws.link_mark[static_cast<std::size_t>(m)] = epoch;
    ws.links.push_back(m);
  }
}

// Progressive filling over the flows marked in ws.flow_mark with
// `member_epoch` (ws.flows lists them), from one ws.heap entry per link in
// ws.links with ws.rem_cap/ws.unfrozen set: repeatedly freeze the unfrozen
// flows of the link with the smallest remaining fair share, calling
// freeze(flow, rate, link) once per flow. Frozen flows are stamped with
// `pass_epoch`.
template <typename Freeze>
void progressive_fill(const FlowTable& t, WaterfillScratch& ws, std::uint32_t member_epoch,
                      std::uint32_t pass_epoch, Freeze&& freeze) {
  FillHeap heap(ws);
  heap.build();
  std::size_t unfrozen_flows = ws.flows.size();
  while (unfrozen_flows > 0) {
    D2NET_ASSERT(!heap.empty(), "waterfill heap drained with unfrozen flows");
    const FillEntry top = heap.pop();
    const double fair = top.ratio;
    const std::int32_t l = top.link;
    for (std::int32_t s = t.link_head[static_cast<std::size_t>(l)]; s >= 0;
         s = t.slot_next[static_cast<std::size_t>(s)]) {
      const int f = s / kMaxLinksPerFlow;
      if (ws.flow_mark[static_cast<std::size_t>(f)] != member_epoch ||
          ws.flow_frozen[static_cast<std::size_t>(f)] == pass_epoch) {
        continue;
      }
      ws.flow_frozen[static_cast<std::size_t>(f)] = pass_epoch;
      --unfrozen_flows;
      freeze(f, fair, l);
      const int base = f * kMaxLinksPerFlow;
      for (int j = 0; j < t.nlinks[static_cast<std::size_t>(f)]; ++j) {
        const std::int32_t m = t.slot_link[static_cast<std::size_t>(base + j)];
        const double rem = ws.rem_cap[static_cast<std::size_t>(m)] -= fair;
        const std::int32_t left = --ws.unfrozen[static_cast<std::size_t>(m)];
        if (!heap.contains(m)) continue;  // l itself, drained by this loop
        if (left > 0) {
          heap.update(m, std::max(rem, 0.0) / left);
        } else {
          heap.remove(m);
        }
      }
    }
  }
  heap.clear();
}
}  // namespace

void waterfill_from(FlowTable& t, const std::int32_t* seeds, int nseeds,
                    WaterfillScratch& ws, RateChangeSink& sink) {
  ws.ensure(t.num_links, t.capacity());
  const std::uint32_t epoch = ++ws.epoch;
  ws.links.clear();
  ws.flows.clear();

  // Collect the component(s): alternate link -> member flows -> their links.
  // Only links that currently carry flows join (an empty seed contributes
  // nothing); every link of a marked flow carries at least that flow.
  for (int i = 0; i < nseeds; ++i) {
    const std::int32_t l = seeds[i];
    if (ws.link_mark[static_cast<std::size_t>(l)] == epoch) continue;
    ws.link_mark[static_cast<std::size_t>(l)] = epoch;
    if (t.link_nflows[static_cast<std::size_t>(l)] > 0) ws.links.push_back(l);
  }
  for (std::size_t qi = 0; qi < ws.links.size(); ++qi) {
    const std::int32_t l = ws.links[qi];
    for (std::int32_t s = t.link_head[static_cast<std::size_t>(l)]; s >= 0;
         s = t.slot_next[static_cast<std::size_t>(s)]) {
      collect_flow(t, ws, s / kMaxLinksPerFlow, epoch);
    }
  }
  if (ws.flows.empty()) return;

  ws.heap.clear();
  for (std::int32_t l : ws.links) {
    ws.rem_cap[static_cast<std::size_t>(l)] = 1.0;
    ws.unfrozen[static_cast<std::size_t>(l)] = t.link_nflows[static_cast<std::size_t>(l)];
    ws.heap.push_back({1.0 / t.link_nflows[static_cast<std::size_t>(l)], l});
  }
  progressive_fill(t, ws, epoch, epoch, [&](int f, double fair, std::int32_t l) {
    // The sink accrues at the old rate and writes the new one back; it must
    // not create or destroy flows mid-pass.
    if (t.rate[static_cast<std::size_t>(f)] != fair) sink.on_rate_change(f, fair);
    t.bottleneck[static_cast<std::size_t>(f)] = l;
  });
}

void waterfill_all(FlowTable& t, WaterfillScratch& ws, RateChangeSink& sink) {
  std::vector<std::int32_t> seeds;
  seeds.reserve(static_cast<std::size_t>(t.num_links));
  for (int l = 0; l < t.num_links; ++l) {
    if (t.link_nflows[static_cast<std::size_t>(l)] > 0) seeds.push_back(l);
  }
  waterfill_from(t, seeds.data(), static_cast<int>(seeds.size()), ws, sink);
}

RepairResult repair_from(FlowTable& t, const std::int32_t* seeds, int nseeds,
                         WaterfillScratch& ws, RateChangeSink& sink) {
  ws.ensure(t.num_links, t.capacity());
  RepairResult res;
  // The free flows (ws.flows) and the links they touch (ws.links) only grow
  // over the rounds of one repair, so their marks share one epoch. The
  // first round frees every flow on a seed link.
  const std::uint32_t free_epoch = ++ws.epoch;
  ws.flows.clear();
  ws.links.clear();
  for (int i = 0; i < nseeds; ++i) {
    for (std::int32_t s = t.link_head[static_cast<std::size_t>(seeds[i])]; s >= 0;
         s = t.slot_next[static_cast<std::size_t>(s)]) {
      collect_flow(t, ws, s / kMaxLinksPerFlow, free_epoch);
    }
  }
  if (ws.flows.empty()) return res;

  const auto fall_back = [&] {
    RoundingFilterSink filtered(t, sink);
    waterfill_from(t, seeds, nseeds, ws, filtered);
    res.flows_touched += static_cast<std::int64_t>(ws.flows.size());
    res.fell_back = true;
    return res;
  };
  // Past this much fill work the repair has cost as much as recomputing
  // the largest possible component, which the fallback then does.
  const std::int64_t budget = t.active;

  for (;;) {
    const std::uint32_t epoch = ++ws.epoch;
    res.flows_touched += static_cast<std::int64_t>(ws.flows.size());
    if (res.flows_touched > budget) return fall_back();
    ++res.rounds;

    // Each touched link offers the free flows what its fixed flows leave.
    // link_max starts as the fastest fixed flow and the fill raises it.
    ws.heap.clear();
    for (std::int32_t l : ws.links) {
      double rem = 1.0;
      double fixed_max = 0.0;
      int nfree = 0;
      for (std::int32_t s = t.link_head[static_cast<std::size_t>(l)]; s >= 0;
           s = t.slot_next[static_cast<std::size_t>(s)]) {
        const int f = s / kMaxLinksPerFlow;
        if (ws.flow_mark[static_cast<std::size_t>(f)] == free_epoch) {
          ++nfree;
        } else {
          rem -= t.rate[static_cast<std::size_t>(f)];
          fixed_max = std::max(fixed_max, t.rate[static_cast<std::size_t>(f)]);
        }
      }
      ws.rem_cap[static_cast<std::size_t>(l)] = rem;
      ws.unfrozen[static_cast<std::size_t>(l)] = nfree;
      ws.link_max[static_cast<std::size_t>(l)] = fixed_max;
      ws.stat_mark[static_cast<std::size_t>(l)] = epoch;
      ws.heap.push_back({std::max(rem, 0.0) / nfree, l});
    }
    // Fill the free flows into tentative rates: nothing is reported until
    // the certificate holds.
    progressive_fill(t, ws, free_epoch, epoch, [&](int f, double fair, std::int32_t l) {
      ws.tent_rate[static_cast<std::size_t>(f)] = fair;
      ws.tent_bottleneck[static_cast<std::size_t>(f)] = l;
      const int base = f * kMaxLinksPerFlow;
      for (int j = 0; j < t.nlinks[static_cast<std::size_t>(f)]; ++j) {
        const std::int32_t m = t.slot_link[static_cast<std::size_t>(base + j)];
        ws.link_max[static_cast<std::size_t>(m)] =
            std::max(ws.link_max[static_cast<std::size_t>(m)], fair);
      }
    });

    // Certificate: every flow on a touched link needs a bottleneck — a
    // saturated link on which no flow is faster. A fixed flow whose
    // recorded bottleneck is untouched keeps it: nothing on that link
    // moved. Flows on no touched link kept every link as it was.
    // rem_cap/link_max hold each touched link's final spare capacity and
    // fastest flow; other links are summed on demand (no free flows there).
    const auto certifies = [&](std::int32_t m, double r) {
      const std::size_t ms = static_cast<std::size_t>(m);
      if (ws.stat_mark[ms] != epoch) {
        double rem = 1.0;
        double mx = 0.0;
        for (std::int32_t s = t.link_head[ms]; s >= 0;
             s = t.slot_next[static_cast<std::size_t>(s)]) {
          const double rf = t.rate[static_cast<std::size_t>(s / kMaxLinksPerFlow)];
          rem -= rf;
          mx = std::max(mx, rf);
        }
        ws.rem_cap[ms] = rem;
        ws.link_max[ms] = mx;
        ws.stat_mark[ms] = epoch;
      }
      return ws.rem_cap[ms] <= kCertEps && r >= ws.link_max[ms] - kCertEps;
    };
    ws.rebind.clear();
    ws.freed.clear();
    bool violated = false;
    for (std::int32_t l : ws.links) {
      for (std::int32_t s = t.link_head[static_cast<std::size_t>(l)]; s >= 0;
           s = t.slot_next[static_cast<std::size_t>(s)]) {
        const int f = s / kMaxLinksPerFlow;
        const std::size_t fs = static_cast<std::size_t>(f);
        if (ws.cert_mark[fs] == epoch) continue;
        ws.cert_mark[fs] = epoch;
        const bool is_free = ws.flow_mark[fs] == free_epoch;
        const double r = is_free ? ws.tent_rate[fs] : t.rate[fs];
        const std::int32_t b = is_free ? ws.tent_bottleneck[fs] : t.bottleneck[fs];
        if (b >= 0 && ((!is_free && ws.link_mark[static_cast<std::size_t>(b)] != free_epoch) ||
                       certifies(b, r))) {
          continue;
        }
        const int base = f * kMaxLinksPerFlow;
        std::int32_t found = -1;
        for (int j = 0; j < t.nlinks[fs] && found < 0; ++j) {
          const std::int32_t m = t.slot_link[static_cast<std::size_t>(base + j)];
          if (m != b && certifies(m, r)) found = m;
        }
        if (found >= 0) {
          ws.rebind.emplace_back(f, found);
          continue;
        }
        violated = true;
        if (!is_free) {
          ws.freed.push_back(f);
          continue;
        }
        // A free flow fills to a saturated bottleneck on which no free flow
        // is faster, so it fails only where a faster fixed flow sits: free
        // the fixed flows on its links that outrun it.
        for (int j = 0; j < t.nlinks[fs]; ++j) {
          const std::int32_t m = t.slot_link[static_cast<std::size_t>(base + j)];
          for (std::int32_t s2 = t.link_head[static_cast<std::size_t>(m)]; s2 >= 0;
               s2 = t.slot_next[static_cast<std::size_t>(s2)]) {
            const int g = s2 / kMaxLinksPerFlow;
            if (ws.flow_mark[static_cast<std::size_t>(g)] != free_epoch &&
                t.rate[static_cast<std::size_t>(g)] > r + kCertEps) {
              ws.freed.push_back(g);
            }
          }
        }
      }
    }
    if (!violated) break;
    // Free flows failing only on rounding free nothing; widening cannot
    // help, so recompute.
    if (ws.freed.empty()) return fall_back();
    // The picks join only now, so the pass above judged every flow against
    // this round's fill.
    for (std::int32_t g : ws.freed) collect_flow(t, ws, g, free_epoch);
  }

  for (std::int32_t f : ws.flows) {
    const std::size_t fs = static_cast<std::size_t>(f);
    const double new_rate = ws.tent_rate[fs];
    const double old_rate = t.rate[fs];
    if (differs_beyond_rounding(new_rate, old_rate)) sink.on_rate_change(f, new_rate);
    t.bottleneck[fs] = ws.tent_bottleneck[fs];
  }
  for (const auto& [f, m] : ws.rebind) t.bottleneck[static_cast<std::size_t>(f)] = m;
  return res;
}

}  // namespace d2net::flowsim
