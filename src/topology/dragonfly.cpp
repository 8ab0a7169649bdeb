#include "topology/dragonfly.h"

#include <string>

#include "common/error.h"

namespace d2net {

Topology build_dragonfly(int a, int h, int p) {
  if (a < 2) throw ArgumentError("Dragonfly needs >= 2 routers per group");
  if (h < 1) throw ArgumentError("Dragonfly needs >= 1 global link per router");
  if (p < 1) throw ArgumentError("Dragonfly needs >= 1 endpoint per router");
  const int groups = a * h + 1;

  Topology topo("Dragonfly(a=" + std::to_string(a) + ",h=" + std::to_string(h) +
                    ",p=" + std::to_string(p) + ")",
                TopologyKind::kDragonfly);
  // Router id = group * a + index; node numbering is thus contiguous
  // intra-router, intra-group, then group-major.
  for (int g = 0; g < groups; ++g) {
    for (int r = 0; r < a; ++r) {
      topo.add_router(RouterInfo{/*level=*/0, /*a=*/g, /*b=*/r}, p);
    }
  }
  auto rid = [a](int group, int router) { return group * a + router; };

  // Intra-group full mesh.
  for (int g = 0; g < groups; ++g) {
    for (int r1 = 0; r1 < a; ++r1) {
      for (int r2 = r1 + 1; r2 < a; ++r2) {
        topo.add_link(rid(g, r1), rid(g, r2));
      }
    }
  }
  // Global links, consecutive arrangement: group G's global channel
  // c = offset - 1 (owned by router c / h) reaches group G + offset.
  for (int g = 0; g < groups; ++g) {
    for (int offset = 1; offset <= a * h; ++offset) {
      const int dst_group = (g + offset) % groups;
      if (dst_group < g) continue;  // each unordered pair once
      const int src_channel = offset - 1;
      const int dst_channel = a * h - offset;  // reverse offset - 1
      topo.add_link(rid(g, src_channel / h), rid(dst_group, dst_channel / h));
    }
  }

  topo.finalize();
  D2NET_ASSERT(topo.num_routers() == groups * a, "Dragonfly router count");
  for (int r = 0; r < topo.num_routers(); ++r) {
    D2NET_ASSERT(topo.network_degree(r) == a - 1 + h, "Dragonfly router degree");
  }
  return topo;
}

Topology build_dragonfly_balanced(int r) {
  if ((r + 1) % 4 != 0) {
    throw ArgumentError("balanced Dragonfly needs radix with (r+1) % 4 == 0, got r = " +
                        std::to_string(r));
  }
  const int p = (r + 1) / 4;
  return build_dragonfly(2 * p, p, p);
}

}  // namespace d2net
