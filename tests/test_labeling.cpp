// Hub labeling (compact APSP representation): exactness of the
// HubLabeling<S>::build labels against Dijkstra / Bellman–Ford, BFS and
// a dense closure over all pairs, label-size scaling, and edge cases
// (unreachability, negative weights, same-leaf pairs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "baseline/reach.hpp"
#include "core/labeling.hpp"
#include "core/routing.hpp"
#include "semiring/matrix.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

void check_all_pairs(const Digraph& g, const SeparatorTree& tree,
                     bool negative = false) {
  const auto labeling = HubLabeling<TropicalD>::build(g, tree);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    std::vector<double> want;
    if (negative) {
      const BellmanFordResult bf = bellman_ford(g, u);
      ASSERT_FALSE(bf.negative_cycle);
      want = bf.dist;
    } else {
      want = dijkstra(g, u).dist;
    }
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const double got = labeling.value(u, v);
      if (std::isinf(want[v])) {
        EXPECT_TRUE(std::isinf(got)) << u << "->" << v;
      } else {
        EXPECT_NEAR(got, want[v], 1e-8) << u << "->" << v;
      }
    }
  }
}

TEST(Labeling, ExactOnGrid) {
  Rng rng(1);
  const GeneratedGraph gg = make_grid({8, 8}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({8, 8}));
  check_all_pairs(gg.graph, tree);
}

TEST(Labeling, ExactOnTree) {
  Rng rng(2);
  const GeneratedGraph gg = make_random_tree(90, WeightModel::uniform(1, 5), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_tree_finder());
  check_all_pairs(gg.graph, tree);
}

TEST(Labeling, ExactOnMeshWithNegativeWeights) {
  Rng rng(3);
  const GeneratedGraph gg =
      make_triangulated_grid(6, 8, WeightModel::mixed_sign(6), rng);
  const SeparatorTree tree = build_separator_tree(
      Skeleton(gg.graph), make_geometric_finder(gg.coords));
  check_all_pairs(gg.graph, tree, /*negative=*/true);
}

TEST(Labeling, ExactOnDirectedSparseGraphWithUnreachablePairs) {
  Rng rng(4);
  const GeneratedGraph gg =
      make_random_digraph(70, 140, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
  check_all_pairs(gg.graph, tree);
}

TEST(Labeling, SelfDistanceIsZero) {
  Rng rng(5);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const auto labeling = HubLabeling<TropicalD>::build(gg.graph, tree);
  for (Vertex v = 0; v < 25; ++v) {
    EXPECT_DOUBLE_EQ(labeling.value(v, v), 0.0);
  }
}

TEST(Labeling, LabelSizesScaleLikeSqrtNOnGrids) {
  Rng rng(6);
  double prev_avg = 0;
  for (const std::size_t side : {8u, 16u, 32u}) {
    const std::vector<std::size_t> dims = {side, side};
    const GeneratedGraph gg = make_grid(dims, WeightModel::uniform(1, 9), rng);
    const SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_grid_finder(dims));
    const auto labeling = HubLabeling<TropicalD>::build(gg.graph, tree);
    const double avg = labeling.average_label_size();
    // Hubs per vertex ~ sum of separator sizes up the path = O(sqrt n):
    // far below n.
    EXPECT_LT(avg, 8.0 * side);
    EXPECT_GT(avg, prev_avg);  // grows with n...
    prev_avg = avg;
    EXPECT_EQ(labeling.total_label_entries(),
              [&] {
                std::size_t total = 0;
                for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
                  total += labeling.label_size(v);
                }
                return total;
              }());
  }
}

TEST(Labeling, ReachabilityLabelsMatchBfs) {
  Rng rng(8);
  const GeneratedGraph full = make_grid({8, 8}, WeightModel::unit(), rng);
  GraphBuilder b(full.graph.num_vertices());
  for (const EdgeTriple& e : full.graph.edge_list()) {
    if (rng.next_bool(0.65)) b.add_edge(e.from, e.to, 1.0);
  }
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({8, 8}));
  const auto labels = HubLabeling<BooleanSR>::build(g, tree);
  for (Vertex u = 0; u < g.num_vertices(); u += 5) {
    const auto want = bfs_reachable(g, u);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(labels.value(u, v) != 0, want[v] != 0) << u << "->" << v;
    }
  }
}

TEST(Labeling, BottleneckLabelsMatchClosure) {
  Rng rng(9);
  const GeneratedGraph gg =
      make_grid({6, 6}, WeightModel::uniform(1, 100), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  const auto labels = HubLabeling<BottleneckSR>::build(gg.graph, tree);
  Matrix<BottleneckSR> want(gg.graph.num_vertices());
  for (Vertex u = 0; u < gg.graph.num_vertices(); ++u) {
    want.at(u, u) = BottleneckSR::one();
    for (const Arc& a : gg.graph.out(u)) {
      want.merge(u, a.to, BottleneckSR::from_weight(a.weight));
    }
  }
  floyd_warshall(want);
  for (Vertex u = 0; u < gg.graph.num_vertices(); u += 4) {
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(labels.value(u, v), want.at(u, v)) << u << "->" << v;
    }
  }
}

TEST(Labeling, OptionsFacadeBuildIsDeterministic) {
  // Two builds from the same input and options are identical, although
  // the hub queries run as parallel chunks on the pool: an epoch's
  // labels do not depend on scheduling.
  Rng rng(8);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  HubLabeling<TropicalD>::Options opts;
  const auto a = HubLabeling<TropicalD>::build(gg.graph, tree, opts);
  const auto b = HubLabeling<TropicalD>::build(gg.graph, tree, opts);
  EXPECT_EQ(a.total_label_entries(), b.total_label_entries());
  for (Vertex u = 0; u < 25; ++u) {
    for (Vertex v = 0; v < 25; v += 2) {
      EXPECT_DOUBLE_EQ(a.value(u, v), b.value(u, v));
    }
  }
}

TEST(Labeling, OneQueryPerDistinctHub) {
  // A vertex separating several tree nodes is one hub: the build queries
  // it once per direction, not once per separator occurrence. On the
  // 25 x 25 grid the grid finder's separators hold 1,679 occurrences of
  // 621 distinct vertices.
  Rng rng(10);
  const GeneratedGraph gg =
      make_grid({25, 25}, WeightModel::uniform(1, 10), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({25, 25}));
  std::size_t occurrences = 0;
  std::vector<char> is_hub(gg.graph.num_vertices(), 0);
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    occurrences += tree.node(id).separator.size();
    for (const Vertex h : tree.node(id).separator) is_hub[h] = 1;
  }
  const auto distinct =
      static_cast<std::uint64_t>(std::count(is_hub.begin(), is_hub.end(), 1));
  EXPECT_EQ(occurrences, 1679u);
  EXPECT_EQ(distinct, 621u);

  const Digraph reversed = gg.graph.transpose();
  const auto fwd = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);
  const auto bwd = SeparatorShortestPaths<TropicalD>::build(reversed, tree);
  const std::uint64_t fwd_before = fwd.stats().queries;
  const std::uint64_t bwd_before = bwd.stats().queries;
  RoutingScheme::build_from_engines(gg.graph, tree, fwd, bwd, reversed);
  EXPECT_EQ(fwd.stats().queries - fwd_before, distinct);
  EXPECT_EQ(bwd.stats().queries - bwd_before, distinct);
}

}  // namespace
}  // namespace sepsp
