#include "topology/sspt.h"

#include <string>

#include "common/error.h"
#include "topology/oft.h"

namespace d2net {

SptPattern make_spt_pattern_mesh(int r1) {
  if (r1 < 2) throw ArgumentError("mesh SPT needs r1 >= 2");
  SptPattern p;
  p.r1 = r1;
  p.r2 = 2;
  p.num_l1 = r1 + 1;
  p.num_l2 = p.num_l1 * r1 / 2;
  p.uplinks.assign(p.num_l1, {});
  // L2 router per unordered L1 pair (i < j), numbered in pair order.
  int next = 0;
  std::vector<std::vector<int>> pair_id(p.num_l1, std::vector<int>(p.num_l1, -1));
  for (int i = 0; i < p.num_l1; ++i) {
    for (int j = i + 1; j < p.num_l1; ++j) {
      pair_id[i][j] = next++;
    }
  }
  for (int i = 0; i < p.num_l1; ++i) {
    for (int j = 0; j < p.num_l1; ++j) {
      if (i == j) continue;
      p.uplinks[i].push_back(pair_id[std::min(i, j)][std::max(i, j)]);
    }
  }
  D2NET_ASSERT(next == p.num_l2, "mesh L2 count mismatch");
  return p;
}

SptPattern make_spt_pattern_ml3b(int k) {
  SptPattern p;
  p.r1 = k;
  p.r2 = k;
  p.num_l1 = oft_routers_per_level(k);
  p.num_l2 = p.num_l1;
  p.uplinks = build_ml3b(k);
  return p;
}

bool spt_pattern_is_valid(const SptPattern& p) {
  if (p.num_l1 != 1 + p.r1 * (p.r2 - 1)) return false;
  if (static_cast<int>(p.uplinks.size()) != p.num_l1) return false;
  if (p.num_l2 * p.r2 != p.num_l1 * p.r1) return false;
  std::vector<int> degree(p.num_l2, 0);
  for (const auto& row : p.uplinks) {
    if (static_cast<int>(row.size()) != p.r1) return false;
    for (int v : row) {
      if (v < 0 || v >= p.num_l2) return false;
      ++degree[v];
    }
  }
  for (int d : degree) {
    if (d != p.r2) return false;
  }
  // Exactly one shared L2 router per L1 pair.
  std::vector<std::vector<bool>> member(p.num_l1, std::vector<bool>(p.num_l2, false));
  for (int i = 0; i < p.num_l1; ++i) {
    for (int v : p.uplinks[i]) {
      if (member[i][v]) return false;
      member[i][v] = true;
    }
  }
  for (int i = 0; i < p.num_l1; ++i) {
    for (int j = i + 1; j < p.num_l1; ++j) {
      int common = 0;
      for (int v : p.uplinks[i]) common += member[j][v] ? 1 : 0;
      if (common != 1) return false;
    }
  }
  return true;
}

Topology build_spt(const SptPattern& pattern, int endpoints_per_router) {
  if (!spt_pattern_is_valid(pattern)) throw ArgumentError("invalid SPT pattern");
  const int p = endpoints_per_router < 0 ? pattern.r1 : endpoints_per_router;
  Topology topo("SPT(r1=" + std::to_string(pattern.r1) + ",r2=" + std::to_string(pattern.r2) +
                    ")",
                TopologyKind::kCustom);
  for (int i = 0; i < pattern.num_l1; ++i) topo.add_router(RouterInfo{0, i, 0}, p);
  for (int j = 0; j < pattern.num_l2; ++j) topo.add_router(RouterInfo{1, j, 0}, 0);
  for (int i = 0; i < pattern.num_l1; ++i) {
    for (int v : pattern.uplinks[i]) topo.add_link(i, pattern.num_l1 + v);
  }
  topo.finalize();
  return topo;
}

Topology build_sspt(const SptPattern& pattern, int copies, int endpoints_per_router) {
  if (!spt_pattern_is_valid(pattern)) throw ArgumentError("invalid SPT pattern");
  int s = copies;
  if (s < 0) {
    if (2 * pattern.r1 % pattern.r2 != 0) {
      throw ArgumentError("single-radix stacking needs r2 | 2*r1");
    }
    s = 2 * pattern.r1 / pattern.r2;
  }
  if (s < 1) throw ArgumentError("need at least one copy");
  const int p = endpoints_per_router < 0 ? pattern.r1 : endpoints_per_router;

  Topology topo("SSPT(r1=" + std::to_string(pattern.r1) + ",r2=" + std::to_string(pattern.r2) +
                    ",s=" + std::to_string(s) + ")",
                TopologyKind::kCustom);
  // Level-one routers, copy-major — the contiguous node mapping runs
  // intra-router, intra-copy, then across copies.
  for (int c = 0; c < s; ++c) {
    for (int i = 0; i < pattern.num_l1; ++i) {
      topo.add_router(RouterInfo{0, c, i}, p);
    }
  }
  // Merged level-two routers.
  const int l2_base = s * pattern.num_l1;
  for (int j = 0; j < pattern.num_l2; ++j) topo.add_router(RouterInfo{1, j, 0}, 0);
  for (int c = 0; c < s; ++c) {
    for (int i = 0; i < pattern.num_l1; ++i) {
      for (int v : pattern.uplinks[i]) {
        topo.add_link(c * pattern.num_l1 + i, l2_base + v);
      }
    }
  }
  topo.finalize();
  return topo;
}

}  // namespace d2net
