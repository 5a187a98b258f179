// Boundary and degenerate inputs across the whole stack: self loops,
// parallel arcs, zero weights, single-vertex/single-leaf instances,
// complete graphs, empty-ish graphs.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "semiring/bitmatrix.hpp"
#include "semiring/matrix.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

SeparatorTree tree_of(const Digraph& g, std::size_t leaf_size = 4) {
  DecompositionOptions opts;
  opts.leaf_size = leaf_size;
  const Skeleton skel(g);
  return build_separator_tree(skel, make_auto_finder(skel), opts);
}

TEST(EdgeCases, SingleVertexGraph) {
  GraphBuilder b(1);
  const Digraph g = std::move(b).build();
  const SeparatorTree tree = tree_of(g);
  const auto engine = SeparatorShortestPaths<>::build(g, tree);
  const auto r = engine.distances(0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_FALSE(r.negative_cycle);
}

TEST(EdgeCases, TwoVerticesOneArc) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 4.5);
  const Digraph g = std::move(b).build();
  const auto engine = SeparatorShortestPaths<>::build(g, tree_of(g));
  const auto r = engine.distances(0);
  EXPECT_DOUBLE_EQ(r.dist[1], 4.5);
  EXPECT_TRUE(std::isinf(engine.distances(1).dist[0]));
}

TEST(EdgeCases, PositiveSelfLoopsAreIgnoredByDistances) {
  GraphBuilder b(3);
  b.add_edge(0, 0, 5.0);  // harmless self loop
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 2, 0.5);
  const Digraph g = std::move(b).build();
  const auto engine = SeparatorShortestPaths<>::build(g, tree_of(g));
  const auto r = engine.distances(0);
  EXPECT_FALSE(r.negative_cycle);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
}

TEST(EdgeCases, NegativeSelfLoopIsANegativeCycle) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 1, -0.25);
  const Digraph g = std::move(b).build();
  const auto engine = SeparatorShortestPaths<>::build(g, tree_of(g));
  EXPECT_TRUE(engine.distances(0).negative_cycle);
  EXPECT_TRUE(bellman_ford(g, 0).negative_cycle);
  // Unreachable from 1's perspective? 1 reaches itself: still flagged.
  EXPECT_TRUE(engine.distances(1).negative_cycle);
}

TEST(EdgeCases, ParallelArcsKeepTheMinimum) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 9.0);
  b.add_edge(0, 1, 2.0);
  b.add_edge(0, 1, 5.0);
  const Digraph g = std::move(b).build(/*dedup_min=*/false);
  const auto engine = SeparatorShortestPaths<>::build(g, tree_of(g));
  EXPECT_DOUBLE_EQ(engine.distances(0).dist[1], 2.0);
}

TEST(EdgeCases, ZeroWeightGraph) {
  Rng rng(1);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::unit(), rng);
  GraphBuilder b(25);
  for (const EdgeTriple& e : gg.graph.edge_list()) {
    b.add_edge(e.from, e.to, 0.0);
  }
  const Digraph g = std::move(b).build();
  const auto engine = SeparatorShortestPaths<>::build(g, tree_of(g));
  const auto r = engine.distances(12);
  EXPECT_FALSE(r.negative_cycle);
  for (Vertex v = 0; v < 25; ++v) EXPECT_DOUBLE_EQ(r.dist[v], 0.0);
}

TEST(EdgeCases, SingleLeafTreeDegradesToBellmanFord) {
  // leaf_size >= n: the tree is one leaf, E+ is empty, ell = n - 1, and
  // the schedule is plain phase-limited Bellman–Ford — still exact.
  Rng rng(2);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree = tree_of(gg.graph, /*leaf_size=*/64);
  EXPECT_EQ(tree.num_nodes(), 1u);
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  EXPECT_TRUE(engine.shortcut_edges().empty());
  const auto got = engine.distances(0);
  const auto want = dijkstra(gg.graph, 0);
  for (Vertex v = 0; v < 36; ++v) {
    EXPECT_NEAR(got.dist[v], want.dist[v], 1e-9);
  }
}

TEST(EdgeCases, CompleteGraphEngineWorksDespiteNoSeparators) {
  Rng rng(3);
  const GeneratedGraph gg = make_complete(12, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree = tree_of(gg.graph);
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto got = engine.distances(0);
  const auto want = dijkstra(gg.graph, 0);
  for (Vertex v = 0; v < 12; ++v) {
    EXPECT_NEAR(got.dist[v], want.dist[v], 1e-9);
  }
}

TEST(EdgeCases, DisconnectedPiecesAndIsolatedVertices) {
  GraphBuilder b(9);
  b.add_bidirectional(0, 1, 1);
  b.add_bidirectional(1, 2, 1);
  b.add_bidirectional(4, 5, 2);  // 3, 6, 7, 8 isolated
  const Digraph g = std::move(b).build();
  const auto engine = SeparatorShortestPaths<>::build(g, tree_of(g, 2));
  const auto r = engine.distances(0);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  for (const Vertex v : {3u, 4u, 6u, 8u}) EXPECT_TRUE(std::isinf(r.dist[v]));
  const auto r8 = engine.distances(8);
  EXPECT_DOUBLE_EQ(r8.dist[8], 0.0);
}

TEST(EdgeCases, IncrementalWithParallelArcs) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 9.0);
  b.add_edge(0, 1, 3.0);  // parallel
  b.add_edge(1, 2, 1.0);
  const Digraph g = std::move(b).build(/*dedup_min=*/false);
  const SeparatorTree tree = tree_of(g, 2);
  IncrementalEngine engine = IncrementalEngine::build(g, tree);
  EXPECT_DOUBLE_EQ(engine.distances(0).dist[2], 4.0);
  engine.update_edge(0, 1, 7.0);  // sets BOTH parallels
  engine.apply();
  EXPECT_DOUBLE_EQ(engine.weight(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(engine.distances(0).dist[2], 8.0);
}

TEST(EdgeCases, HugeWeightsDoNotOverflow) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1e300);
  b.add_edge(1, 2, 1e300);
  const Digraph g = std::move(b).build();
  const auto engine = SeparatorShortestPaths<>::build(g, tree_of(g, 2));
  const auto r = engine.distances(0);
  EXPECT_FALSE(r.negative_cycle);
  EXPECT_DOUBLE_EQ(r.dist[2], 2e300);
}

TEST(EdgeCases, EmptySeedSetsAndEmptyBatches) {
  Rng rng(5);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::uniform(1, 9), rng);
  const auto engine =
      SeparatorShortestPaths<>::build(gg.graph, tree_of(gg.graph));
  // No seeds: nothing is reachable, nothing crashes.
  const auto none = engine.distances_seeded({});
  for (Vertex v = 0; v < 16; ++v) EXPECT_TRUE(std::isinf(none.dist[v]));
  EXPECT_FALSE(none.negative_cycle);
  const auto batch = engine.distances_batch({});
  EXPECT_TRUE(batch.empty());
}

TEST(EdgeCases, ZeroSizedMatrices) {
  Matrix<TropicalD> a(0), b(0);
  const auto c = multiply(a, b);
  EXPECT_EQ(c.rows(), 0u);
  floyd_warshall(a);  // no-op, no crash
  BitMatrix bits(0, 0);
  EXPECT_EQ(bits.popcount(), 0u);
  EXPECT_EQ(bits.closure().popcount(), 0u);
}

TEST(EdgeCases, MeasuredRadiusOnTrivialGraphs) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  const Digraph g = std::move(b).build();
  const SeparatorTree tree = tree_of(g, 2);
  const auto engine = build_augmentation_recursive<TropicalD>(g, tree);
  EXPECT_LE(measure_shortcut_radius(engine, 0),
            engine.augmentation().diameter_bound());
  EXPECT_EQ(measure_shortcut_radius(engine, 1), 0u);  // nothing reachable
}

TEST(EdgeCases, BatchWithDuplicateSources) {
  Rng rng(4);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::uniform(1, 9), rng);
  const auto engine =
      SeparatorShortestPaths<>::build(gg.graph, tree_of(gg.graph));
  const std::vector<Vertex> sources{3, 3, 3};
  const auto batch = engine.distances_batch(sources);
  EXPECT_EQ(batch[0].dist, batch[1].dist);
  EXPECT_EQ(batch[1].dist, batch[2].dist);
}

}  // namespace
}  // namespace sepsp
