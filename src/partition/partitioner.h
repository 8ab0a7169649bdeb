// Multilevel graph bisection — the METIS [Karypis & Kumar 1998] substitute
// used to approximate bisection bandwidth (paper Section 2.3.2, Fig. 4).
//
// Pipeline: heavy-edge-matching coarsening until the graph is small, greedy
// BFS region-growing for the initial bisection (best of several seeds),
// then Fiduccia–Mattheyses boundary refinement at every uncoarsening level,
// with a vertex-weight balance constraint.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace d2net {

class Rng;

/// Undirected weighted graph in CSR form.
struct CsrGraph {
  int num_vertices = 0;
  std::vector<int> xadj;     ///< size num_vertices + 1
  std::vector<int> adjncy;   ///< neighbor ids
  std::vector<int> adjwgt;   ///< edge weights, parallel to adjncy
  std::vector<int> vwgt;     ///< vertex weights, size num_vertices

  int degree(int v) const { return xadj[v + 1] - xadj[v]; }
  std::int64_t total_vertex_weight() const;
  /// Validates CSR symmetry and weight consistency (debug helper).
  bool is_symmetric() const;
};

/// Builds a CsrGraph from an edge list (u, v, w); parallel edges are merged
/// by summing weights.
CsrGraph make_csr(int num_vertices, const std::vector<std::array<int, 3>>& edges,
                  std::vector<int> vertex_weights);

struct BisectionResult {
  std::vector<std::uint8_t> side;  ///< 0/1 per vertex
  std::int64_t cut_weight = 0;
  std::int64_t weight[2] = {0, 0};
};

struct BisectionOptions {
  double max_imbalance = 0.02;  ///< allowed 2|w0 - target0| / total
  int coarsen_to = 64;          ///< stop coarsening below this many vertices
  int initial_tries = 8;        ///< region-growing restarts on coarsest graph
  int refine_passes = 8;        ///< max FM passes per level
  std::uint64_t seed = 1;
};

/// Bisects the graph minimizing edge cut subject to the balance constraint.
BisectionResult bisect(const CsrGraph& graph, const BisectionOptions& options = {});

/// Recomputes the cut of a given assignment (for verification in tests).
std::int64_t cut_weight(const CsrGraph& graph, const std::vector<std::uint8_t>& side);

}  // namespace d2net
