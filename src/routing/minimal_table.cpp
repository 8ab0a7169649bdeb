#include "routing/minimal_table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "topology/topology.h"

namespace d2net {

namespace {
inline bool admits(const LinkFilter& alive, int a, int b) {
  return alive == nullptr || alive(a, b);
}

/// The `want` entry of a pair with no next hops; no distance row holds it.
constexpr std::int16_t kNever = -2;

// Row kernels. The b loop runs in fixed blocks so that compilers vectorize
// it at -O2 as well (a fixed trip count needs no epilogue), then a scalar
// tail.
constexpr std::size_t kBlock = 32;

/// count[b] += 1 where row[b] == want[b], for b < n.
void count_matches(const std::int16_t* __restrict row, const std::int16_t* __restrict want,
                   std::uint32_t* __restrict count, std::size_t n) {
  std::size_t b = 0;
  for (; b + kBlock <= n; b += kBlock) {
    for (std::size_t i = 0; i < kBlock; ++i) count[b + i] += row[b + i] == want[b + i] ? 1 : 0;
  }
  for (; b < n; ++b) count[b] += row[b] == want[b] ? 1 : 0;
}

/// hit[b] |= bit where row[b] == want[b], for b < n.
void mark_matches(const std::int16_t* __restrict row, const std::int16_t* __restrict want,
                  std::uint8_t* __restrict hit, std::uint8_t bit, std::size_t n) {
  std::size_t b = 0;
  for (; b + kBlock <= n; b += kBlock) {
    for (std::size_t i = 0; i < kBlock; ++i) hit[b + i] |= row[b + i] == want[b + i] ? bit : 0;
  }
  for (; b < n; ++b) hit[b] |= row[b] == want[b] ? bit : 0;
}
}  // namespace

struct MinimalTable::AdmittedLinks {
  const Topology& topo;
  bool filtered;
  /// With a filter: the admitted links as CSR rows (`off` has n + 1
  /// entries). Without one, the topology's own adjacency serves.
  std::vector<int> off;
  std::vector<int> to;
  /// Routers no admitted link enters (a dead router): no BFS but their own
  /// reaches them.
  std::vector<char> unenterable;
  int num_unenterable = 0;

  /// Consults `alive` once per directed link.
  AdmittedLinks(const Topology& t, const LinkFilter& alive) : topo(t), filtered(alive != nullptr) {
    const int n = topo.num_routers();
    unenterable.assign(static_cast<std::size_t>(n), 1);
    if (filtered) {
      std::size_t directed = 0;
      for (int u = 0; u < n; ++u) directed += topo.neighbors(u).size();
      to.reserve(directed);
      off.reserve(static_cast<std::size_t>(n) + 1);
      off.push_back(0);
    }
    for (int u = 0; u < n; ++u) {
      for (int v : topo.neighbors(u)) {
        if (!admits(alive, u, v)) continue;
        if (filtered) to.push_back(v);
        unenterable[static_cast<std::size_t>(v)] = 0;
      }
      if (filtered) off.push_back(static_cast<int>(to.size()));
    }
    for (char c : unenterable) num_unenterable += c;
  }

  std::span<const int> of(int u) const {
    if (!filtered) return topo.neighbors(u);
    return {to.data() + off[u], to.data() + off[u + 1]};
  }
};

MinimalTable::MinimalTable(const Topology& topo) : n_(topo.num_routers()) {
  rebuild(topo, nullptr);
  // The healthy-topology constructor keeps the historical strictness; the
  // fault layer goes through rebuild()/update_link(), which tolerate
  // disconnection.
  D2NET_REQUIRE(unreachable_pairs() == 0, "topology is disconnected");
}

void MinimalTable::bfs_row(const AdmittedLinks& links, int s, std::vector<int>& queue) {
  std::int16_t* row = dist_.data() + idx(s, 0);
  std::fill(row, row + n_, std::int16_t{-1});
  row[s] = 0;
  queue[0] = s;
  int head = 0;
  int tail = 1;
  // Stops as soon as every router that can be reached has a label: in a
  // diameter-two graph that is after the first few neighbours' rows, not
  // the whole frontier.
  const int reachable = n_ - links.num_unenterable + links.unenterable[static_cast<std::size_t>(s)];
  while (head < tail && tail < reachable) {
    const int u = queue[static_cast<std::size_t>(head++)];
    const auto du = static_cast<std::int16_t>(row[u] + 1);
    for (int v : links.of(u)) {
      if (row[v] < 0) {
        row[v] = du;
        queue[static_cast<std::size_t>(tail++)] = v;
      }
    }
  }
}

void MinimalTable::pack_next_hops(const AdmittedLinks& links) {
  // Admitted neighbour v of a is a next hop toward b iff
  // dist(v, b) == dist(a, b) - 1. Per source a, `want` holds a's row minus
  // one (kNever where b == a or b is unreachable) and each admitted v's
  // row is compared against it whole: v outer, b inner, so every (a, b)
  // list comes out in adjacency order. A count pass sizes nh_data_
  // exactly, then a fill pass writes it. Both count and fill in a's own
  // nh_off_ row, so the only scratch is `want` and `hit`.
  const std::size_t n = static_cast<std::size_t>(n_);
  std::vector<std::int16_t> want(n);
  const auto load_want = [&](int a) {
    const std::int16_t* ra = dist_.data() + idx(a, 0);
    for (std::size_t b = 0; b < n; ++b) {
      want[b] = ra[b] > 0 ? static_cast<std::int16_t>(ra[b] - 1) : kNever;
    }
  };
  const auto row = [&](int v) { return dist_.data() + idx(v, 0); };

  std::size_t total = 0;
  for (int a = 0; a < n_; ++a) {
    load_want(a);
    std::uint32_t* off = nh_off_.data() + idx(a, 0);
    std::fill(off, off + n, std::uint32_t{0});
    for (int v : links.of(a)) count_matches(row(v), want.data(), off, n);
    for (std::size_t b = 0; b < n; ++b) {
      const std::uint32_t count = off[b];
      off[b] = static_cast<std::uint32_t>(total);
      total += count;
    }
  }
  D2NET_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
                "next-hop table exceeds 32-bit offsets");
  nh_off_.back() = static_cast<std::uint32_t>(total);
  nh_data_.resize(total);

  // The fill marks up to eight neighbours at a time, neighbour j of the
  // group as bit j of hit[b], then walks the set bits eight bytes at a
  // time: b ascending, and within one b the neighbours in adjacency order.
  // a's offsets serve as the write cursors; each list ends where the next
  // begins, so shifting the row by one afterwards restores them.
  std::vector<std::uint8_t> hit((n + 7) / 8 * 8);
  for (int a = 0; a < n_; ++a) {
    load_want(a);
    std::uint32_t* cursor = nh_off_.data() + idx(a, 0);
    const std::uint32_t row_start = cursor[0];
    const auto vs = links.of(a);
    for (std::size_t k = 0; k < vs.size(); k += 8) {
      const std::size_t group = std::min<std::size_t>(8, vs.size() - k);
      std::fill(hit.begin(), hit.end(), std::uint8_t{0});
      for (std::size_t j = 0; j < group; ++j) {
        mark_matches(row(vs[k + j]), want.data(), hit.data(),
                     static_cast<std::uint8_t>(1u << j), n);
      }
      for (std::size_t w = 0; w < n; w += 8) {
        std::uint64_t bits;
        std::memcpy(&bits, hit.data() + w, sizeof bits);
        while (bits != 0) {
          const auto t = static_cast<std::size_t>(std::countr_zero(bits));
          nh_data_[cursor[w + t / 8]++] = vs[k + t % 8];
          bits &= bits - 1;
        }
      }
    }
    std::memmove(cursor + 1, cursor, (n - 1) * sizeof *cursor);
    cursor[0] = row_start;
  }
}

void MinimalTable::recompute_diameter() {
  diameter_ = 0;
  for (std::int16_t d : dist_) {
    if (d > diameter_) diameter_ = d;
  }
}

void MinimalTable::rebuild(const Topology& topo, const LinkFilter& alive) {
  D2NET_REQUIRE(topo.num_routers() == n_ || dist_.empty(),
                "rebuild against a different-sized topology");
  n_ = topo.num_routers();
  const AdmittedLinks links(topo, alive);
  // Every row and offset is written below, so resize leaves nothing stale.
  dist_.resize(static_cast<std::size_t>(n_) * n_);
  nh_off_.resize(static_cast<std::size_t>(n_) * n_ + 1);
  std::vector<int> queue(static_cast<std::size_t>(n_));
  for (int s = 0; s < n_; ++s) bfs_row(links, s, queue);
  recompute_diameter();
  pack_next_hops(links);
}

void MinimalTable::update_link(const Topology& topo, const LinkFilter& alive, int u, int v) {
  D2NET_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v, "update_link endpoints");
  const AdmittedLinks links(topo, alive);
  const bool now_alive = admits(alive, u, v);
  // A single link change can only move distances for sources where the link
  // matters: on a cut, sources whose BFS DAG had the link tight
  // (|d(s,u) - d(s,v)| == 1); on a revival, sources it brings strictly
  // closer (|d(s,u) - d(s,v)| > 1, unreachable counting as infinity).
  // Everything else keeps its distances; only the next-hop packing (which
  // reads the admitted adjacency directly) is redone in full.
  std::vector<int> queue(static_cast<std::size_t>(n_));
  for (int s = 0; s < n_; ++s) {
    const int du = dist_[idx(s, u)];
    const int dv = dist_[idx(s, v)];
    bool affected;
    if (du < 0 && dv < 0) {
      affected = false;  // both already unreachable; a link between them changes nothing
    } else if (du < 0 || dv < 0) {
      // One side reachable, one not: a cut cannot cause this retroactively,
      // a revival bridges the components for this source.
      affected = now_alive;
    } else {
      const int gap = du > dv ? du - dv : dv - du;
      affected = now_alive ? gap > 1 : gap == 1;
    }
    if (affected) bfs_row(links, s, queue);
  }
  recompute_diameter();
  pack_next_hops(links);
}

std::int64_t MinimalTable::unreachable_pairs() const {
  std::int64_t count = 0;
  for (std::int16_t d : dist_) count += d < 0 ? 1 : 0;
  return count;
}

std::vector<int> MinimalTable::sample_path(int a, int b, Rng& rng) const {
  std::vector<int> path;
  sample_path_into(a, b, rng, path);
  return path;
}

void MinimalTable::enumerate_paths(int a, int b, std::vector<std::vector<int>>& out) const {
  std::vector<int> stack{a};
  // Iterative DFS over the shortest-path DAG.
  struct Frame {
    int router;
    std::size_t next_index;
  };
  std::vector<Frame> frames{{a, 0}};
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.router == b) {
      out.push_back(stack);
      frames.pop_back();
      stack.pop_back();
      continue;
    }
    const auto nh = next_hops(f.router, b);
    if (f.next_index >= nh.size()) {
      frames.pop_back();
      stack.pop_back();
      continue;
    }
    const int v = nh[f.next_index++];
    frames.push_back({v, 0});
    stack.push_back(v);
  }
}

}  // namespace d2net
