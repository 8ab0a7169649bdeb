#include "topology/hyperx.h"

#include <string>

#include "common/error.h"

namespace d2net {

Topology build_hyperx2d(int s1, int s2, int p) {
  if (s1 < 2 || s2 < 2) throw ArgumentError("HyperX dimensions must be >= 2");
  if (p < 1) throw ArgumentError("HyperX p must be >= 1");

  Topology topo("HyperX2D(" + std::to_string(s1) + "x" + std::to_string(s2) +
                    ",p=" + std::to_string(p) + ")",
                TopologyKind::kHyperX2D);
  auto rid = [s2](int i, int j) { return i * s2 + j; };
  for (int i = 0; i < s1; ++i) {
    for (int j = 0; j < s2; ++j) {
      topo.add_router(RouterInfo{0, i, j}, p);
    }
  }
  // Full mesh within each row (dimension 2) and each column (dimension 1).
  for (int i = 0; i < s1; ++i) {
    for (int j = 0; j < s2; ++j) {
      for (int j2 = j + 1; j2 < s2; ++j2) topo.add_link(rid(i, j), rid(i, j2));
      for (int i2 = i + 1; i2 < s1; ++i2) topo.add_link(rid(i, j), rid(i2, j));
    }
  }
  topo.finalize();
  return topo;
}

Topology build_hyperx2d_balanced(int r) {
  if (r < 3 || r % 3 != 0) {
    throw ArgumentError("balanced 2-D HyperX needs radix divisible by 3");
  }
  const int s = r / 3 + 1;
  return build_hyperx2d(s, s, r / 3);
}

}  // namespace d2net
