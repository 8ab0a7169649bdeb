#include "topology/mlfm.h"

#include <string>

#include "common/error.h"

namespace d2net {

Topology build_mlfm(int h, int l, int p) {
  if (h < 2) throw ArgumentError("MLFM h must be >= 2");
  if (l < 1) throw ArgumentError("MLFM l must be >= 1");
  if (p < 1) throw ArgumentError("MLFM p must be >= 1");

  Topology topo("MLFM(h=" + std::to_string(h) + ",l=" + std::to_string(l) +
                    ",p=" + std::to_string(p) + ")",
                TopologyKind::kMlfm);

  // Local routers: layer-major so node ids run intra-router, intra-layer,
  // then across layers (paper Section 4.4 mapping).
  for (int layer = 0; layer < l; ++layer) {
    for (int idx = 0; idx <= h; ++idx) {
      topo.add_router(RouterInfo{/*level=*/0, /*a=*/layer, /*b=*/idx}, p);
    }
  }

  // Global routers, one per unordered LR-index pair (i < j); each connects
  // to LR i and LR j in every layer.
  for (int i = 0; i <= h; ++i) {
    for (int j = i + 1; j <= h; ++j) {
      const int gr = topo.add_router(RouterInfo{/*level=*/1, /*a=*/i, /*b=*/j}, 0);
      for (int layer = 0; layer < l; ++layer) {
        topo.add_link(gr, mlfm_lr_id(h, layer, i));
        topo.add_link(gr, mlfm_lr_id(h, layer, j));
      }
    }
  }

  topo.finalize();
  D2NET_ASSERT(topo.num_routers() == l * (h + 1) + h * (h + 1) / 2, "MLFM router count");
  D2NET_ASSERT(topo.num_nodes() == l * (h + 1) * p, "MLFM node count");
  return topo;
}

Topology build_mlfm(int h) { return build_mlfm(h, h, h); }

}  // namespace d2net
