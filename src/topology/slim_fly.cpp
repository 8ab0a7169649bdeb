#include "topology/slim_fly.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "gf/galois_field.h"

namespace d2net {

SlimFlyShape slim_fly_shape(int q) {
  if (!GaloisField::is_prime_power(q)) {
    throw ArgumentError("Slim Fly q must be a prime power, got " + std::to_string(q));
  }
  SlimFlyShape s;
  s.q = q;
  switch (q % 4) {
    case 1: s.delta = 1; break;
    case 0: s.delta = 0; break;
    case 3: s.delta = -1; break;
    default:
      // q % 4 == 2 means q = 2 (only even prime power with q/2 odd), which
      // cannot be written as 4w + delta with delta in {-1, 0, 1} and w >= 1.
      throw ArgumentError("q = " + std::to_string(q) + " is not of the form 4w + delta");
  }
  s.w = (q - s.delta) / 4;
  if (s.w < 1) throw ArgumentError("q too small for an MMS graph: " + std::to_string(q));
  s.network_radix = (3 * q - s.delta) / 2;
  s.num_routers = 2 * q * q;
  return s;
}

MmsGeneratorSets mms_generator_sets(const GaloisField& gf, int delta, int w) {
  const int q = gf.order();
  const int xi = gf.primitive_element();
  MmsGeneratorSets out;
  auto push_powers = [&](std::vector<int>& dst, int from, int to, int step) {
    for (int e = from; e <= to; e += step) dst.push_back(gf.pow(xi, e));
  };
  if (delta == 1) {
    // X  = {1, xi^2, ..., xi^(q-3)};  X' = {xi, xi^3, ..., xi^(q-2)}.
    push_powers(out.x, 0, q - 3, 2);
    push_powers(out.x_prime, 1, q - 2, 2);
  } else if (delta == -1) {
    // X  = {1, xi^2, ..., xi^(2w-2)} u {xi^(2w-1), xi^(2w+1), ..., xi^(4w-3)}
    // X' = {xi, xi^3, ..., xi^(2w-1)} u {xi^(2w), xi^(2w+2), ..., xi^(4w-2)}.
    push_powers(out.x, 0, 2 * w - 2, 2);
    push_powers(out.x, 2 * w - 1, 4 * w - 3, 2);
    push_powers(out.x_prime, 1, 2 * w - 1, 2);
    push_powers(out.x_prime, 2 * w, 4 * w - 2, 2);
  } else {
    // delta == 0 (q = 4w, characteristic 2).
    // X = {1, xi^2, ..., xi^(q-2)};  X' = {xi, xi^3, ..., xi^(q-1)}.
    push_powers(out.x, 0, q - 2, 2);
    push_powers(out.x_prime, 1, q - 1, 2);
  }
  D2NET_ASSERT(static_cast<int>(out.x.size()) == 2 * w, "X size != 2w");
  D2NET_ASSERT(static_cast<int>(out.x_prime.size()) == 2 * w, "X' size != 2w");
  // The Cayley sets must be symmetric (closed under negation), otherwise the
  // intra-subgraph "links" would not be well-defined undirected edges.
  for (const auto* set : {&out.x, &out.x_prime}) {
    for (int s : *set) {
      D2NET_ASSERT(std::find(set->begin(), set->end(), gf.neg(s)) != set->end(),
                   "generator set not symmetric");
    }
  }
  return out;
}

Topology build_slim_fly(int q, SlimFlyP rounding, int endpoints_per_router) {
  const SlimFlyShape shape = slim_fly_shape(q);
  GaloisField gf(q);
  const MmsGeneratorSets gens = mms_generator_sets(gf, shape.delta, shape.w);

  int p = endpoints_per_router;
  if (p < 0) {
    p = rounding == SlimFlyP::kFloor ? shape.network_radix / 2
                                     : (shape.network_radix + 1) / 2;
  }

  Topology topo("SlimFly(q=" + std::to_string(q) + ",p=" + std::to_string(p) + ")",
                TopologyKind::kSlimFly);

  // Router id = subgraph * q^2 + column * q + row. Subgraph 0 uses (x, y)
  // as (column, row); subgraph 1 uses (m, c). This realizes the paper's
  // contiguous node ordering: intra-router, then intra-column, then
  // subgraph-major.
  auto rid = [q](int subgraph, int col, int row) { return subgraph * q * q + col * q + row; };
  for (int subgraph = 0; subgraph < 2; ++subgraph) {
    for (int col = 0; col < q; ++col) {
      for (int row = 0; row < q; ++row) {
        topo.add_router(RouterInfo{subgraph, col, row}, p);
      }
    }
  }

  // Intra-subgraph links: (0,x,y) ~ (0,x,y') iff y - y' in X;
  //                       (1,m,c) ~ (1,m,c') iff c - c' in X'.
  // Each unordered pair is visited once by requiring row < row2 via the
  // set membership of both differences (sets are symmetric).
  auto add_cayley_links = [&](int subgraph, const std::vector<int>& gen_set) {
    for (int col = 0; col < q; ++col) {
      for (int row = 0; row < q; ++row) {
        for (int g : gen_set) {
          const int row2 = gf.add(row, g);
          if (row < row2) topo.add_link(rid(subgraph, col, row), rid(subgraph, col, row2));
        }
      }
    }
  };
  add_cayley_links(0, gens.x);
  add_cayley_links(1, gens.x_prime);

  // Cross links: (0, x, y) ~ (1, m, c) iff y = m*x + c.
  for (int x = 0; x < q; ++x) {
    for (int m = 0; m < q; ++m) {
      for (int c = 0; c < q; ++c) {
        const int y = gf.add(gf.mul(m, x), c);
        topo.add_link(rid(0, x, y), rid(1, m, c));
      }
    }
  }

  topo.finalize();
  // Structural invariant: every router ends up with network radix r'.
  for (int r = 0; r < topo.num_routers(); ++r) {
    D2NET_ASSERT(topo.network_degree(r) == shape.network_radix,
                 "Slim Fly router degree != (3q - delta)/2");
  }
  return topo;
}

}  // namespace d2net
