// Unit tests for skeletons, BFS and skeleton connectivity.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/skeleton.hpp"

namespace sepsp {
namespace {

TEST(Skeleton, MergesDirectionsAndDedups) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 0, 2);  // same undirected edge
  b.add_edge(1, 2, 3);
  b.add_edge(1, 1, 9);  // self loop ignored
  const Digraph g = std::move(b).build();
  const Skeleton s(g);
  EXPECT_EQ(s.num_vertices(), 3u);
  EXPECT_EQ(s.num_edges(), 2u);
  EXPECT_EQ(s.degree(1), 2u);
  EXPECT_EQ(s.degree(0), 1u);
}

TEST(Skeleton, FromEdges) {
  const std::vector<EdgeTriple> edges{{0, 1, 1.0}, {2, 1, 1.0}};
  const Skeleton s = Skeleton::from_edges(4, edges);
  EXPECT_EQ(s.num_edges(), 2u);
  EXPECT_EQ(s.degree(3), 0u);
}

TEST(Bfs, DirectedHopsAndParents) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(3, 0, 1);  // 3 unreachable FROM 0
  const Digraph g = std::move(b).build();
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.hops[0], 0u);
  EXPECT_EQ(r.hops[1], 1u);
  EXPECT_EQ(r.hops[2], 2u);
  EXPECT_EQ(r.hops[3], BfsResult::kUnreachedHops);
  EXPECT_EQ(r.parent[2], 1u);
  EXPECT_EQ(r.parent[0], kInvalidVertex);
}

TEST(Bfs, SkeletonWithMask) {
  Rng rng(1);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::unit(), rng);
  const Skeleton s(gg.graph);
  // Mask away the middle column (x == 2): vertex v has x = v % 5.
  std::vector<std::uint8_t> mask(25, 1);
  for (Vertex v = 0; v < 25; ++v) {
    if (v % 5 == 2) mask[v] = 0;
  }
  const BfsResult r = bfs(s, 0, mask);
  EXPECT_EQ(r.hops[1], 1u);                              // same side
  EXPECT_EQ(r.hops[2], BfsResult::kUnreachedHops);       // masked out
  EXPECT_EQ(r.hops[4], BfsResult::kUnreachedHops);       // across the cut
}

TEST(IsConnected, DetectsBothCases) {
  Rng rng(5);
  const GeneratedGraph grid = make_grid({4, 4}, WeightModel::unit(), rng);
  EXPECT_TRUE(is_connected(Skeleton(grid.graph)));
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  EXPECT_FALSE(is_connected(Skeleton(std::move(b).build())));
}

}  // namespace
}  // namespace sepsp
