#include "topology/oft.h"

#include <string>

#include "common/error.h"
#include "gf/galois_field.h"
#include "gf/mols.h"

namespace d2net {

Ml3bTable build_ml3b(int k) {
  if (k < 2) throw ArgumentError("ML3B degree must be >= 2");
  const int n = k - 1;  // order of the Latin squares / projective plane
  // n == 1 (k == 2) is the trivial projective plane of order 1 (a triangle)
  // and needs no Latin squares.
  if (n != 1 && !GaloisField::is_prime_power(n)) {
    throw ArgumentError("ML3B requires k - 1 to be a prime power, got k = " + std::to_string(k));
  }
  const int rl = oft_routers_per_level(k);  // = n^2 + n + 1
  Ml3bTable table(rl, std::vector<int>(k, -1));

  // Step 1: first row holds RL-k .. RL-1.
  for (int c = 0; c < k; ++c) table[0][c] = rl - k + c;

  // Step 2: first column of the remaining rows holds k-1 copies of RL-k,
  // then k-1 copies of RL-k+1, ... (one block of n rows per value).
  for (int row = 1; row < rl; ++row) table[row][0] = rl - k + (row - 1) / n;

  // Step 3: the k(k-1) x (k-1) remainder is split into k squares of n x n.
  //   Square 0: 0 .. n^2-1 row-major.
  //   Square 1: its transpose.
  //   Squares 2..k-1: the k-2 MOLS of order n beyond the transpose pair,
  //   with column c (1-based within the square) increased by (c-1) * n.
  //
  // In GF terms squares 1..k-1 are L_a(r, c) = r + a*c (a = 0 for the
  // transpose, then each nonzero element) offset by c*n; together with
  // square 0 this realizes the line set of the projective plane PG(2, n).
  GaloisField gf(n == 1 ? 2 : n);  // n == 1 (k == 2) needs no squares beyond size-1
  auto row_of_square = [&](int s, int r) { return 1 + s * n + r; };
  for (int s = 0; s < k; ++s) {
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        int value;
        if (s == 0) {
          value = r * n + c;
        } else {
          // Multiplier a: 0 for s == 1 (transpose), else the (s-1)-th
          // nonzero field element in increasing encoding (for prime n this
          // is simply s - 1, recovering (r + (s-1)c) mod n).
          const int a = s - 1;
          const int raw = n == 1 ? 0 : gf.add(r, gf.mul(a, c));
          value = raw + c * n;
        }
        table[row_of_square(s, r)][c + 1] = value;
      }
    }
  }
  D2NET_ASSERT(ml3b_is_valid(table, k), "ML3B construction failed validity check");
  return table;
}

bool ml3b_is_valid(const Ml3bTable& table, int k) {
  const int rl = oft_routers_per_level(k);
  if (static_cast<int>(table.size()) != rl) return false;
  std::vector<int> appearances(rl, 0);
  for (const auto& row : table) {
    if (static_cast<int>(row.size()) != k) return false;
    for (int v : row) {
      if (v < 0 || v >= rl) return false;
      ++appearances[v];
    }
  }
  for (int v = 0; v < rl; ++v) {
    if (appearances[v] != k) return false;
  }
  // Pairwise single intersection (the SPT "exactly one minimal path"
  // property). O(RL^2 * k) with bitsets of row membership.
  std::vector<std::vector<bool>> member(rl, std::vector<bool>(rl, false));
  for (int i = 0; i < rl; ++i) {
    for (int v : table[i]) {
      if (member[i][v]) return false;  // duplicate within a row
      member[i][v] = true;
    }
  }
  for (int i = 0; i < rl; ++i) {
    for (int j = i + 1; j < rl; ++j) {
      int common = 0;
      for (int v : table[i]) common += member[j][v] ? 1 : 0;
      if (common != 1) return false;
    }
  }
  return true;
}

Topology build_oft(int k) {
  const Ml3bTable table = build_ml3b(k);
  const int rl = oft_routers_per_level(k);

  Topology topo("OFT(k=" + std::to_string(k) + ")", TopologyKind::kOft);
  // Endpoint-attached levels first so node ids are contiguous across L0
  // then L2 (paper Section 4.4 mapping); L1 routers carry no endpoints.
  for (int i = 0; i < rl; ++i) topo.add_router(RouterInfo{/*level=*/0, i, 0}, k);
  for (int i = 0; i < rl; ++i) topo.add_router(RouterInfo{/*level=*/2, i, 0}, k);
  for (int j = 0; j < rl; ++j) topo.add_router(RouterInfo{/*level=*/1, j, 0}, 0);

  const int l1_base = 2 * rl;
  for (int i = 0; i < rl; ++i) {
    for (int c = 0; c < k; ++c) {
      topo.add_link(i, l1_base + table[i][c]);           // L0 i ~ L1
      topo.add_link(rl + i, l1_base + table[i][c]);      // L2 i ~ L1
    }
  }

  topo.finalize();
  D2NET_ASSERT(topo.num_nodes() == 2 * k * rl, "OFT node count");
  for (int r = 0; r < topo.num_routers(); ++r) {
    D2NET_ASSERT(topo.network_degree(r) + topo.endpoints_of(r) == 2 * k, "OFT radix != 2k");
  }
  return topo;
}

}  // namespace d2net
