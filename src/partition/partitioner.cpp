#include "partition/partitioner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <queue>

#include "common/error.h"
#include "common/rng.h"

namespace d2net {

std::int64_t CsrGraph::total_vertex_weight() const {
  return std::accumulate(vwgt.begin(), vwgt.end(), std::int64_t{0});
}

bool CsrGraph::is_symmetric() const {
  if (static_cast<int>(xadj.size()) != num_vertices + 1) return false;
  std::map<std::pair<int, int>, std::int64_t> w;
  for (int u = 0; u < num_vertices; ++u) {
    for (int e = xadj[u]; e < xadj[u + 1]; ++e) {
      const int v = adjncy[e];
      if (v < 0 || v >= num_vertices || v == u) return false;
      w[{u, v}] += adjwgt[e];
    }
  }
  for (const auto& [key, weight] : w) {
    auto it = w.find({key.second, key.first});
    if (it == w.end() || it->second != weight) return false;
  }
  return true;
}

CsrGraph make_csr(int num_vertices, const std::vector<std::array<int, 3>>& edges,
                  std::vector<int> vertex_weights) {
  D2NET_REQUIRE(static_cast<int>(vertex_weights.size()) == num_vertices,
                "vertex weight arity mismatch");
  // Merge parallel edges.
  std::map<std::pair<int, int>, std::int64_t> merged;
  for (const auto& [u, v, w] : edges) {
    D2NET_REQUIRE(u >= 0 && u < num_vertices && v >= 0 && v < num_vertices && u != v,
                  "bad edge");
    merged[{std::min(u, v), std::max(u, v)}] += w;
  }
  CsrGraph g;
  g.num_vertices = num_vertices;
  g.vwgt = std::move(vertex_weights);
  std::vector<int> deg(num_vertices, 0);
  for (const auto& [key, w] : merged) {
    (void)w;
    ++deg[key.first];
    ++deg[key.second];
  }
  g.xadj.assign(num_vertices + 1, 0);
  for (int v = 0; v < num_vertices; ++v) g.xadj[v + 1] = g.xadj[v] + deg[v];
  g.adjncy.resize(g.xadj.back());
  g.adjwgt.resize(g.xadj.back());
  std::vector<int> fill(g.xadj.begin(), g.xadj.end() - 1);
  for (const auto& [key, w] : merged) {
    const auto [u, v] = key;
    g.adjncy[fill[u]] = v;
    g.adjwgt[fill[u]++] = static_cast<int>(w);
    g.adjncy[fill[v]] = u;
    g.adjwgt[fill[v]++] = static_cast<int>(w);
  }
  return g;
}

std::int64_t cut_weight(const CsrGraph& graph, const std::vector<std::uint8_t>& side) {
  std::int64_t cut = 0;
  for (int u = 0; u < graph.num_vertices; ++u) {
    for (int e = graph.xadj[u]; e < graph.xadj[u + 1]; ++e) {
      const int v = graph.adjncy[e];
      if (u < v && side[u] != side[v]) cut += graph.adjwgt[e];
    }
  }
  return cut;
}

namespace {

struct Coarsening {
  CsrGraph graph;
  std::vector<int> fine_to_coarse;
};

/// Heavy-edge matching contraction.
Coarsening coarsen(const CsrGraph& g, Rng& rng) {
  std::vector<int> order(g.num_vertices);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<int> match(g.num_vertices, -1);
  for (int u : order) {
    if (match[u] >= 0) continue;
    int best = -1;
    int best_w = -1;
    for (int e = g.xadj[u]; e < g.xadj[u + 1]; ++e) {
      const int v = g.adjncy[e];
      if (match[v] < 0 && v != u && g.adjwgt[e] > best_w) {
        best_w = g.adjwgt[e];
        best = v;
      }
    }
    if (best >= 0) {
      match[u] = best;
      match[best] = u;
    } else {
      match[u] = u;
    }
  }
  Coarsening out;
  out.fine_to_coarse.assign(g.num_vertices, -1);
  int next = 0;
  for (int u = 0; u < g.num_vertices; ++u) {
    if (out.fine_to_coarse[u] >= 0) continue;
    out.fine_to_coarse[u] = next;
    if (match[u] != u) out.fine_to_coarse[match[u]] = next;
    ++next;
  }
  std::vector<int> vwgt(next, 0);
  for (int u = 0; u < g.num_vertices; ++u) vwgt[out.fine_to_coarse[u]] += g.vwgt[u];
  std::vector<std::array<int, 3>> edges;
  edges.reserve(g.adjncy.size() / 2);
  for (int u = 0; u < g.num_vertices; ++u) {
    for (int e = g.xadj[u]; e < g.xadj[u + 1]; ++e) {
      const int v = g.adjncy[e];
      if (u >= v) continue;
      const int cu = out.fine_to_coarse[u];
      const int cv = out.fine_to_coarse[v];
      if (cu != cv) edges.push_back({cu, cv, g.adjwgt[e]});
    }
  }
  out.graph = make_csr(next, edges, std::move(vwgt));
  return out;
}

/// Greedy BFS region growing from a random seed until side 0 reaches the
/// requested target weight.
std::vector<std::uint8_t> grow_initial(const CsrGraph& g, Rng& rng, std::int64_t target0) {
  std::vector<std::uint8_t> side(g.num_vertices, 1);
  std::vector<bool> visited(g.num_vertices, false);
  std::int64_t w0 = 0;
  std::queue<int> q;
  const int seed = static_cast<int>(rng.next_below(g.num_vertices));
  q.push(seed);
  visited[seed] = true;
  while (w0 < target0) {
    int u;
    if (q.empty()) {
      // Disconnected remainder: restart from any unvisited vertex.
      u = -1;
      for (int v = 0; v < g.num_vertices; ++v) {
        if (!visited[v]) {
          u = v;
          visited[v] = true;
          break;
        }
      }
      if (u < 0) break;
    } else {
      u = q.front();
      q.pop();
    }
    side[u] = 0;
    w0 += g.vwgt[u];
    for (int e = g.xadj[u]; e < g.xadj[u + 1]; ++e) {
      const int v = g.adjncy[e];
      if (!visited[v]) {
        visited[v] = true;
        q.push(v);
      }
    }
  }
  return side;
}

/// One Fiduccia–Mattheyses pass with rollback to the best prefix.
/// Imbalance is measured as 2|w0 - target0| (for target0 = total/2 this is
/// the classic |w0 - w1|). Returns the cut improvement (>= 0).
std::int64_t fm_pass(const CsrGraph& g, std::vector<std::uint8_t>& side,
                     std::int64_t max_imbalance_weight, std::int64_t target0) {
  const int n = g.num_vertices;
  std::vector<std::int64_t> gain(n, 0);
  std::int64_t weight[2] = {0, 0};
  for (int u = 0; u < n; ++u) {
    weight[side[u]] += g.vwgt[u];
    for (int e = g.xadj[u]; e < g.xadj[u + 1]; ++e) {
      gain[u] += side[g.adjncy[e]] != side[u] ? g.adjwgt[e] : -g.adjwgt[e];
    }
  }
  const auto measure = [target0](std::int64_t w0) { return 2 * std::abs(w0 - target0); };
  // Exploration slack: FM must be able to leave a perfectly balanced state,
  // so intermediate states may be imbalanced by up to two of the heaviest
  // vertices; only prefixes within the *requested* tolerance (or at least
  // as balanced as the starting state) are accepted.
  std::int64_t max_vwgt = 1;
  for (int u = 0; u < n; ++u) max_vwgt = std::max<std::int64_t>(max_vwgt, g.vwgt[u]);
  const std::int64_t explore_slack = std::max(max_imbalance_weight, 2 * max_vwgt);
  const std::int64_t start_diff = measure(weight[0]);
  const std::int64_t accept_diff = std::max(max_imbalance_weight, start_diff);

  // Lazy max-heap of (gain, vertex); entries are validated on pop.
  using Entry = std::pair<std::int64_t, int>;
  std::priority_queue<Entry> heap;
  for (int u = 0; u < n; ++u) heap.push({gain[u], u});
  std::vector<bool> moved(n, false);

  std::vector<int> sequence;
  sequence.reserve(n);
  std::int64_t cum = 0;
  std::int64_t best_cum = 0;
  std::int64_t best_diff = start_diff;
  int best_len = 0;

  while (!heap.empty()) {
    auto [gv, u] = heap.top();
    heap.pop();
    if (moved[u] || gv != gain[u]) continue;  // stale entry
    // Balance feasibility: moving u from s to 1-s.
    const int s = side[u];
    const std::int64_t new_w0 = s == 0 ? weight[0] - g.vwgt[u] : weight[0] + g.vwgt[u];
    const std::int64_t new_diff = measure(new_w0);
    const std::int64_t old_diff = measure(weight[0]);
    if (new_diff > explore_slack && new_diff >= old_diff) continue;

    moved[u] = true;
    side[u] = static_cast<std::uint8_t>(1 - s);
    weight[s] -= g.vwgt[u];
    weight[1 - s] += g.vwgt[u];
    cum += gv;
    sequence.push_back(u);
    // Accept the prefix if it improves the cut, or matches the cut with a
    // better balance — and does not worsen the balance we started from.
    if (new_diff <= accept_diff &&
        (cum > best_cum || (cum == best_cum && new_diff < best_diff))) {
      best_cum = cum;
      best_diff = new_diff;
      best_len = static_cast<int>(sequence.size());
    }
    for (int e = g.xadj[u]; e < g.xadj[u + 1]; ++e) {
      const int v = g.adjncy[e];
      if (moved[v]) continue;
      // u changed sides: edge contribution to v's gain flips by 2w.
      gain[v] += side[v] != side[u] ? 2 * g.adjwgt[e] : -2 * g.adjwgt[e];
      heap.push({gain[v], v});
    }
  }
  // Roll back past the best prefix.
  for (int i = static_cast<int>(sequence.size()) - 1; i >= best_len; --i) {
    side[sequence[i]] = static_cast<std::uint8_t>(1 - side[sequence[i]]);
  }
  return best_cum;
}

BisectionResult finalize_result(const CsrGraph& g, std::vector<std::uint8_t> side) {
  BisectionResult r;
  r.cut_weight = cut_weight(g, side);
  for (int u = 0; u < g.num_vertices; ++u) r.weight[side[u]] += g.vwgt[u];
  r.side = std::move(side);
  return r;
}

std::vector<std::uint8_t> bisect_recursive(const CsrGraph& g, const BisectionOptions& opts,
                                           Rng& rng, int depth) {
  const std::int64_t total = g.total_vertex_weight();
  const auto max_imb =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(opts.max_imbalance * total));
  const std::int64_t target0 = (total + 1) / 2;  // side 0 takes the odd unit

  std::vector<std::uint8_t> side;
  if (g.num_vertices <= opts.coarsen_to || depth > 64) {
    std::int64_t best_cut = -1;
    for (int t = 0; t < opts.initial_tries; ++t) {
      std::vector<std::uint8_t> cand = grow_initial(g, rng, target0);
      for (int pass = 0; pass < opts.refine_passes; ++pass) {
        if (fm_pass(g, cand, max_imb, target0) == 0) break;
      }
      const std::int64_t c = cut_weight(g, cand);
      if (best_cut < 0 || c < best_cut) {
        best_cut = c;
        side = std::move(cand);
      }
    }
    return side;
  }

  Coarsening c = coarsen(g, rng);
  if (c.graph.num_vertices >= g.num_vertices) {
    // Matching failed to shrink the graph (e.g. star graphs) — fall back to
    // direct initial partitioning.
    BisectionOptions direct = opts;
    direct.coarsen_to = g.num_vertices;
    return bisect_recursive(g, direct, rng, depth + 1);
  }
  // Total vertex weight is preserved by contraction, so target0 transfers
  // unchanged to every level.
  const std::vector<std::uint8_t> coarse_side = bisect_recursive(c.graph, opts, rng, depth + 1);
  side.resize(g.num_vertices);
  for (int u = 0; u < g.num_vertices; ++u) side[u] = coarse_side[c.fine_to_coarse[u]];
  for (int pass = 0; pass < opts.refine_passes; ++pass) {
    if (fm_pass(g, side, max_imb, target0) == 0) break;
  }
  return side;
}

}  // namespace

BisectionResult bisect(const CsrGraph& graph, const BisectionOptions& options) {
  D2NET_REQUIRE(graph.num_vertices > 1, "bisection needs at least two vertices");
  Rng rng(options.seed);
  std::vector<std::uint8_t> side = bisect_recursive(graph, options, rng, 0);
  return finalize_result(graph, std::move(side));
}

}  // namespace d2net
