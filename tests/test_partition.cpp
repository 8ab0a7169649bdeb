// Tests for the multilevel bisection partitioner and the bisection-
// bandwidth estimator, including the paper's Fig. 4 expectations.
#include <gtest/gtest.h>

#include <array>

#include "common/error.h"
#include "partition/bisection_bandwidth.h"
#include "partition/partitioner.h"
#include "topology/fat_tree.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

CsrGraph ring(int n) {
  std::vector<std::array<int, 3>> edges;
  for (int i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n, 1});
  return make_csr(n, edges, std::vector<int>(n, 1));
}

CsrGraph grid(int rows, int cols) {
  std::vector<std::array<int, 3>> edges;
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1), 1});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c), 1});
    }
  }
  return make_csr(rows * cols, edges, std::vector<int>(rows * cols, 1));
}

TEST(Csr, MergesParallelEdgesAndIsSymmetric) {
  const CsrGraph g = make_csr(3, {{0, 1, 2}, {1, 0, 3}, {1, 2, 1}}, {1, 1, 1});
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  // Merged weight 5 on edge (0,1).
  for (int e = g.xadj[0]; e < g.xadj[1]; ++e) {
    EXPECT_EQ(g.adjncy[e], 1);
    EXPECT_EQ(g.adjwgt[e], 5);
  }
}

TEST(Csr, RejectsBadEdges) {
  EXPECT_THROW(make_csr(2, {{0, 0, 1}}, {1, 1}), ArgumentError);
  EXPECT_THROW(make_csr(2, {{0, 5, 1}}, {1, 1}), ArgumentError);
}

TEST(Partitioner, RingCutIsTwo) {
  // Any balanced bisection of an even ring cuts exactly 2 edges.
  const BisectionResult r = bisect(ring(64));
  EXPECT_EQ(r.cut_weight, 2);
  EXPECT_EQ(r.weight[0] + r.weight[1], 64);
  EXPECT_LE(std::abs(r.weight[0] - r.weight[1]), 2);
  EXPECT_EQ(cut_weight(ring(64), r.side), r.cut_weight);
}

TEST(Partitioner, GridCutNearOneSideLength) {
  // The optimal bisection of an 8x8 grid cuts 8 edges (a straight line);
  // the FM heuristic is allowed a small margin above the optimum.
  const BisectionResult r = bisect(grid(8, 8));
  EXPECT_GE(r.cut_weight, 8);
  EXPECT_LE(r.cut_weight, 12);
  EXPECT_LE(std::abs(r.weight[0] - r.weight[1]), 2);
}

TEST(Partitioner, TwoCliquesWithBridge) {
  // Two 16-cliques joined by one edge: optimum cut = 1.
  std::vector<std::array<int, 3>> edges;
  for (int side = 0; side < 2; ++side) {
    const int base = side * 16;
    for (int i = 0; i < 16; ++i) {
      for (int j = i + 1; j < 16; ++j) edges.push_back({base + i, base + j, 1});
    }
  }
  edges.push_back({0, 16, 1});
  const CsrGraph g = make_csr(32, edges, std::vector<int>(32, 1));
  const BisectionResult r = bisect(g);
  EXPECT_EQ(r.cut_weight, 1);
}

TEST(Partitioner, RespectsVertexWeights) {
  // A path of 4 vertices with weights 3,1,1,3: balance needs {3,1}|{1,3}.
  const CsrGraph g = make_csr(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}, {3, 1, 1, 3});
  BisectionOptions opts;
  opts.coarsen_to = 16;
  const BisectionResult r = bisect(g, opts);
  EXPECT_EQ(r.weight[0], 4);
  EXPECT_EQ(r.weight[1], 4);
}

TEST(Partitioner, LargerRandomRegularStaysBalanced) {
  // Property: on a pseudo-random 4-regular graph the cut is positive and
  // the balance constraint holds.
  const int n = 500;
  std::vector<std::array<int, 3>> edges;
  for (int i = 0; i < n; ++i) {
    edges.push_back({i, (i + 1) % n, 1});
    edges.push_back({i, (i * 7 + 3) % n == i ? (i + 2) % n : (i * 7 + 3) % n, 1});
  }
  const CsrGraph g = make_csr(n, edges, std::vector<int>(n, 1));
  const BisectionResult r = bisect(g);
  EXPECT_GT(r.cut_weight, 0);
  EXPECT_LE(std::abs(r.weight[0] - r.weight[1]),
            static_cast<std::int64_t>(0.05 * n) + 2);
  EXPECT_EQ(cut_weight(g, r.side), r.cut_weight);
}

// ------------------------------------------------ bisection bandwidth (Fig. 4)

TEST(BisectionBandwidth, FatTree2IsFullBisection) {
  const BisectionBandwidth bb = approximate_bisection_bandwidth(build_fat_tree2(8));
  EXPECT_NEAR(bb.per_node, 1.0, 0.15);
}

TEST(BisectionBandwidth, MlfmIsAboutHalf) {
  // Fig. 4: MLFM limited to ~0.5 b per endpoint.
  const BisectionBandwidth bb = approximate_bisection_bandwidth(build_mlfm(7));
  EXPECT_GT(bb.per_node, 0.40);
  EXPECT_LT(bb.per_node, 0.70);
}

TEST(BisectionBandwidth, OftBeatsSlimFlyBeatsMlfm) {
  // Fig. 4 ordering at comparable scale: OFT > SF(floor) > MLFM. (Our
  // partitioner finds tighter OFT cuts than the paper's ~0.81-0.89 — the
  // heuristic value is an upper bound on true bisection — but the ranking
  // and the SF/MLFM levels match; see EXPERIMENTS.md.)
  const double oft = approximate_bisection_bandwidth(build_oft(10)).per_node;
  const double sf =
      approximate_bisection_bandwidth(build_slim_fly(11, SlimFlyP::kFloor)).per_node;
  const double sf_ceil =
      approximate_bisection_bandwidth(build_slim_fly(11, SlimFlyP::kCeil)).per_node;
  const double mlfm = approximate_bisection_bandwidth(build_mlfm(11)).per_node;
  EXPECT_GT(oft, sf);
  EXPECT_GT(sf, sf_ceil);  // ceil(p) over-subscribes and lowers per-node bisection
  EXPECT_GT(sf_ceil, mlfm);
  EXPECT_GT(oft, 0.68);
  EXPECT_GT(sf, 0.60);
  EXPECT_LT(mlfm, 0.60);
}

TEST(BisectionBandwidth, BalancedHalves) {
  const BisectionBandwidth bb = approximate_bisection_bandwidth(build_oft(6));
  const auto total = bb.nodes_side0 + bb.nodes_side1;
  EXPECT_EQ(total, build_oft(6).num_nodes());
  EXPECT_LE(std::abs(bb.nodes_side0 - bb.nodes_side1), total / 10);
}

}  // namespace
}  // namespace d2net
