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
    dirty_mark.resize(n, 0);
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
  // A repair advances the epoch once per round, and every round grows the
  // dirty set by at least one link, so num_links + 2 epochs of headroom
  // keep one call from wrapping.
  const std::uint32_t headroom = static_cast<std::uint32_t>(num_links) + 2;
  if (epoch >= std::numeric_limits<std::uint32_t>::max() - headroom) {
    for (auto* marks :
         {&link_mark, &flow_mark, &flow_frozen, &dirty_mark, &stat_mark, &cert_mark}) {
      std::fill(marks->begin(), marks->end(), 0);
    }
    epoch = 0;
  }
}

namespace {
// Min-heap on (fill ratio, link id): the pair's lexicographic order makes
// the link id a deterministic tie-break.
struct HeapCmp {
  bool operator()(const std::pair<double, std::int32_t>& a,
                  const std::pair<double, std::int32_t>& b) const {
    return a > b;
  }
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

// Progressive filling over the flows marked in ws.flow_mark with `epoch`
// (ws.flows lists them), from one ws.heap entry per link in ws.links with
// ws.rem_cap/ws.unfrozen set: repeatedly freeze the unfrozen flows of the
// link with the smallest remaining fair share, calling freeze(flow, rate,
// link) once per flow. Heap entries are lazy — every state update pushes a
// fresh entry, so a popped entry whose ratio no longer matches the link's
// current state is a stale duplicate to skip.
template <typename Freeze>
void progressive_fill(const FlowTable& t, WaterfillScratch& ws, std::uint32_t epoch,
                      Freeze&& freeze) {
  const HeapCmp cmp;
  std::make_heap(ws.heap.begin(), ws.heap.end(), cmp);
  std::size_t unfrozen_flows = ws.flows.size();
  while (unfrozen_flows > 0) {
    D2NET_ASSERT(!ws.heap.empty(), "waterfill heap drained with unfrozen flows");
    std::pop_heap(ws.heap.begin(), ws.heap.end(), cmp);
    const double ratio = ws.heap.back().first;
    const std::int32_t l = ws.heap.back().second;
    ws.heap.pop_back();
    if (ws.unfrozen[static_cast<std::size_t>(l)] <= 0) continue;
    const double fair = std::max(ws.rem_cap[static_cast<std::size_t>(l)], 0.0) /
                        ws.unfrozen[static_cast<std::size_t>(l)];
    if (fair != ratio) continue;

    for (std::int32_t s = t.link_head[static_cast<std::size_t>(l)]; s >= 0;
         s = t.slot_next[static_cast<std::size_t>(s)]) {
      const int f = s / kMaxLinksPerFlow;
      if (ws.flow_mark[static_cast<std::size_t>(f)] != epoch ||
          ws.flow_frozen[static_cast<std::size_t>(f)] == epoch) {
        continue;
      }
      ws.flow_frozen[static_cast<std::size_t>(f)] = epoch;
      --unfrozen_flows;
      freeze(f, fair, l);
      const int base = f * kMaxLinksPerFlow;
      for (int j = 0; j < t.nlinks[static_cast<std::size_t>(f)]; ++j) {
        const std::int32_t m = t.slot_link[static_cast<std::size_t>(base + j)];
        ws.rem_cap[static_cast<std::size_t>(m)] -= fair;
        if (--ws.unfrozen[static_cast<std::size_t>(m)] > 0) {
          ws.heap.emplace_back(std::max(ws.rem_cap[static_cast<std::size_t>(m)], 0.0) /
                                   ws.unfrozen[static_cast<std::size_t>(m)],
                               m);
          std::push_heap(ws.heap.begin(), ws.heap.end(), cmp);
        }
      }
    }
  }
}
}  // namespace

void waterfill_from(FlowTable& t, const std::int32_t* seeds, int nseeds,
                    WaterfillScratch& ws, RateChangeSink& sink) {
  ws.ensure(t.num_links, t.capacity());
  const std::uint32_t epoch = ++ws.epoch;
  ws.links.clear();
  ws.flows.clear();
  ws.heap.clear();

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

  for (std::int32_t l : ws.links) {
    ws.rem_cap[static_cast<std::size_t>(l)] = 1.0;
    ws.unfrozen[static_cast<std::size_t>(l)] = t.link_nflows[static_cast<std::size_t>(l)];
    ws.heap.emplace_back(1.0 / t.link_nflows[static_cast<std::size_t>(l)], l);
  }
  progressive_fill(t, ws, epoch, [&](int f, double fair, std::int32_t l) {
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
  const std::uint32_t dirty_epoch = ++ws.epoch;
  ws.dirty.clear();
  const auto add_dirty = [&](std::int32_t l) {
    if (ws.dirty_mark[static_cast<std::size_t>(l)] == dirty_epoch) return false;
    ws.dirty_mark[static_cast<std::size_t>(l)] = dirty_epoch;
    ws.dirty.push_back(l);
    return true;
  };
  for (int i = 0; i < nseeds; ++i) add_dirty(seeds[i]);

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
    // Free flows: every flow crossing a dirty link. Touched links: theirs.
    ws.flows.clear();
    ws.links.clear();
    for (std::int32_t l : ws.dirty) {
      for (std::int32_t s = t.link_head[static_cast<std::size_t>(l)]; s >= 0;
           s = t.slot_next[static_cast<std::size_t>(s)]) {
        collect_flow(t, ws, s / kMaxLinksPerFlow, epoch);
      }
    }
    if (ws.flows.empty()) return res;
    res.flows_touched += static_cast<std::int64_t>(ws.flows.size());
    if (res.flows_touched > budget) return fall_back();

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
        if (ws.flow_mark[static_cast<std::size_t>(f)] == epoch) {
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
      ws.heap.emplace_back(std::max(rem, 0.0) / nfree, l);
    }
    // Fill the free flows into tentative rates: nothing is reported until
    // the certificate holds.
    progressive_fill(t, ws, epoch, [&](int f, double fair, std::int32_t l) {
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
    bool violated = false;
    bool grew = false;
    for (std::int32_t l : ws.links) {
      for (std::int32_t s = t.link_head[static_cast<std::size_t>(l)]; s >= 0;
           s = t.slot_next[static_cast<std::size_t>(s)]) {
        const int f = s / kMaxLinksPerFlow;
        const std::size_t fs = static_cast<std::size_t>(f);
        if (ws.cert_mark[fs] == epoch) continue;
        ws.cert_mark[fs] = epoch;
        const bool is_free = ws.flow_mark[fs] == epoch;
        const double r = is_free ? ws.tent_rate[fs] : t.rate[fs];
        const std::int32_t b = is_free ? ws.tent_bottleneck[fs] : t.bottleneck[fs];
        if (b >= 0 && ((!is_free && ws.link_mark[static_cast<std::size_t>(b)] != epoch) ||
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
        for (int j = 0; j < t.nlinks[fs]; ++j) {
          grew = add_dirty(t.slot_link[static_cast<std::size_t>(base + j)]) || grew;
        }
      }
    }
    if (!violated) break;
    // A violator whose links are all dirty already is free, and a free
    // flow fails only on rounding; widening cannot help, so recompute.
    if (!grew) return fall_back();
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
