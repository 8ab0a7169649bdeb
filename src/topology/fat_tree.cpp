#include "topology/fat_tree.h"

#include <string>

#include "common/error.h"

namespace d2net {

Topology build_fat_tree2(int r) {
  if (r < 2 || r % 2 != 0) throw ArgumentError("two-level Fat-Tree needs an even radix");
  const int half = r / 2;
  Topology topo("FatTree2(r=" + std::to_string(r) + ")", TopologyKind::kFatTree2);
  // Leaves first (they carry the endpoints), spines after.
  for (int i = 0; i < r; ++i) topo.add_router(RouterInfo{0, i, 0}, half);
  for (int s = 0; s < half; ++s) topo.add_router(RouterInfo{1, s, 0}, 0);
  for (int i = 0; i < r; ++i) {
    for (int s = 0; s < half; ++s) topo.add_link(i, r + s);
  }
  topo.finalize();
  D2NET_ASSERT(topo.num_nodes() == r * half, "FT2 node count");
  return topo;
}

Topology build_fat_tree3(int r) {
  if (r < 2 || r % 2 != 0) throw ArgumentError("three-level Fat-Tree needs an even radix");
  const int half = r / 2;
  Topology topo("FatTree3(r=" + std::to_string(r) + ")", TopologyKind::kFatTree3);

  // Leaves of all pods first, so endpoints are contiguous pod-major.
  // Leaf (pod, i) id = pod * half + i.
  for (int pod = 0; pod < r; ++pod) {
    for (int i = 0; i < half; ++i) topo.add_router(RouterInfo{0, pod, i}, half);
  }
  // Aggregation (pod, j) id = r*half + pod*half + j.
  const int agg_base = r * half;
  for (int pod = 0; pod < r; ++pod) {
    for (int j = 0; j < half; ++j) topo.add_router(RouterInfo{1, pod, j}, 0);
  }
  // Core (group j, index m) id = agg_base + r*half + j*half + m. Core group
  // j serves aggregation router j of every pod.
  const int core_base = agg_base + r * half;
  for (int j = 0; j < half; ++j) {
    for (int m = 0; m < half; ++m) topo.add_router(RouterInfo{2, j, m}, 0);
  }

  for (int pod = 0; pod < r; ++pod) {
    for (int i = 0; i < half; ++i) {
      for (int j = 0; j < half; ++j) {
        topo.add_link(pod * half + i, agg_base + pod * half + j);
      }
    }
    for (int j = 0; j < half; ++j) {
      for (int m = 0; m < half; ++m) {
        topo.add_link(agg_base + pod * half + j, core_base + j * half + m);
      }
    }
  }

  topo.finalize();
  D2NET_ASSERT(topo.num_nodes() == r * r * r / 4, "FT3 node count");
  for (int c = 0; c < half * half; ++c) {
    D2NET_ASSERT(topo.network_degree(core_base + c) == r, "core radix");
  }
  return topo;
}

}  // namespace d2net
