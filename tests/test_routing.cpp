// Compact routing: every route realizes the exact shortest-path weight,
// hop by hop, with only per-vertex tables consulted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "baseline/dijkstra.hpp"
#include "core/incremental.hpp"
#include "core/labeling.hpp"
#include "core/routing.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

double walk_weight(const Digraph& g, const std::vector<Vertex>& path) {
  double total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    double w = 0;
    EXPECT_TRUE(g.find_arc(path[i], path[i + 1], &w))
        << path[i] << "->" << path[i + 1] << " is not an arc";
    total += w;
  }
  return total;
}

void check_routing(const Digraph& g, const SeparatorTree& tree,
                   std::span<const Vertex> sources) {
  const RoutingScheme scheme = RoutingScheme::build(g, tree);
  for (const Vertex u : sources) {
    const DijkstraResult truth = dijkstra(g, u);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (u == v) continue;
      if (std::isinf(truth.dist[v])) {
        EXPECT_EQ(scheme.next_hop(u, v), kInvalidVertex);
        EXPECT_TRUE(scheme.route(u, v).empty());
        continue;
      }
      EXPECT_NEAR(scheme.distance(u, v), truth.dist[v], 1e-8);
      const std::vector<Vertex> path = scheme.route(u, v);
      ASSERT_FALSE(path.empty()) << u << "->" << v;
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      EXPECT_NEAR(walk_weight(g, path), truth.dist[v], 1e-7)
          << u << "->" << v;
    }
  }
}

TEST(Routing, GridRoutesAreExact) {
  Rng rng(1);
  const GeneratedGraph gg = make_grid({9, 9}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const std::vector<Vertex> sources{0, 40, 80};
  check_routing(gg.graph, tree, sources);
}

TEST(Routing, MeshRoutesAreExact) {
  Rng rng(2);
  const GeneratedGraph gg =
      make_triangulated_grid(7, 9, WeightModel::uniform(1, 5), rng);
  const SeparatorTree tree = build_separator_tree(
      Skeleton(gg.graph), make_geometric_finder(gg.coords));
  const std::vector<Vertex> sources{0, 31, 62};
  check_routing(gg.graph, tree, sources);
}

TEST(Routing, DirectedSparseWithUnreachablePairs) {
  Rng rng(3);
  const GeneratedGraph gg =
      make_random_digraph(80, 200, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
  const std::vector<Vertex> sources{0, 40};
  check_routing(gg.graph, tree, sources);
}

TEST(Routing, TreeFamilyAllPairs) {
  Rng rng(4);
  const GeneratedGraph gg =
      make_random_tree(60, WeightModel::uniform(1, 7), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_tree_finder());
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 60; v += 7) sources.push_back(v);
  check_routing(gg.graph, tree, sources);
}

TEST(Routing, TablesAreCompact) {
  Rng rng(5);
  const GeneratedGraph gg =
      make_grid({16, 16}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({16, 16}));
  const RoutingScheme scheme = RoutingScheme::build(gg.graph, tree);
  const std::size_t n = gg.graph.num_vertices();
  // Far below the n^2 of explicit all-pairs next-hop matrices.
  EXPECT_LT(scheme.total_label_entries(), n * n / 4);
  EXPECT_GT(scheme.total_label_entries(), n);  // and nontrivial
}

TEST(Routing, SelfRouteIsTrivial) {
  Rng rng(6);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({4, 4}));
  const RoutingScheme scheme = RoutingScheme::build(gg.graph, tree);
  EXPECT_EQ(scheme.next_hop(3, 3), kInvalidVertex);
  EXPECT_DOUBLE_EQ(scheme.distance(3, 3), 0.0);
  EXPECT_EQ(scheme.route(3, 3), std::vector<Vertex>{3});
}

TEST(Routing, BuildFromEnginesMatchesStandaloneBuild) {
  // The serving runtime's epoch-swap hook: routing tables built against
  // externally owned engines (effective-weight override included) must
  // route exactly like the self-contained build over an equivalently
  // reweighted graph.
  Rng rng(7);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  IncrementalEngine fwd = IncrementalEngine::build(gg.graph, tree);
  fwd.update_edge(4, 5, 0.5);
  fwd.update_edge(12, 13, 14.0);
  fwd.apply();

  const auto arcs = gg.graph.arcs();
  const auto arc_src = gg.graph.arc_sources();
  const auto weights = fwd.weights();
  GraphBuilder rb(gg.graph.num_vertices());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    rb.add_edge(arcs[i].to, arc_src[i], weights[i]);
  }
  const Digraph reversed = std::move(rb).build(/*dedup_min=*/false);
  const IncrementalEngine bwd = IncrementalEngine::build(reversed, tree);

  const auto fwd_snap = fwd.snapshot();
  const auto bwd_snap = bwd.snapshot();
  const RoutingScheme from_engines = RoutingScheme::build_from_engines(
      gg.graph, tree, *fwd_snap.engine, *bwd_snap.engine, reversed,
      fwd.weights(), bwd.weights());

  GraphBuilder wb(gg.graph.num_vertices());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    wb.add_edge(arc_src[i], arcs[i].to, weights[i]);
  }
  const Digraph reweighted = std::move(wb).build(/*dedup_min=*/false);
  const RoutingScheme standalone = RoutingScheme::build(reweighted, tree);
  for (Vertex u = 0; u < 36; u += 2) {
    const DijkstraResult truth = dijkstra(reweighted, u);
    for (Vertex v = 0; v < 36; ++v) {
      EXPECT_DOUBLE_EQ(from_engines.distance(u, v), standalone.distance(u, v))
          << u << "->" << v;
      if (std::isinf(truth.dist[v]) || u == v) continue;
      const std::vector<Vertex> path = from_engines.route(u, v);
      ASSERT_FALSE(path.empty()) << u << "->" << v;
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      EXPECT_NEAR(walk_weight(reweighted, path), truth.dist[v], 1e-9);
    }
  }
}

TEST(Routing, DistanceBitIdenticalToValuesOnlyLabels) {
  // The routing tables are the distance labels plus next hops: over all
  // pairs their distances must match the values-only
  // HubLabeling<TropicalD>::build labels bit for bit, on
  // the grid, mesh, negative-weight mesh and directed-sparse instances.
  struct Instance {
    GeneratedGraph gg;
    SeparatorTree tree;
  };
  std::vector<Instance> instances;
  {
    Rng rng(1);
    GeneratedGraph gg = make_grid({9, 9}, WeightModel::uniform(1, 9), rng);
    SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
    instances.push_back({std::move(gg), std::move(tree)});
  }
  {
    Rng rng(2);
    GeneratedGraph gg =
        make_triangulated_grid(7, 9, WeightModel::uniform(1, 5), rng);
    SeparatorTree tree = build_separator_tree(
        Skeleton(gg.graph), make_geometric_finder(gg.coords));
    instances.push_back({std::move(gg), std::move(tree)});
  }
  {
    Rng rng(3);
    GeneratedGraph gg =
        make_triangulated_grid(6, 8, WeightModel::mixed_sign(6), rng);
    SeparatorTree tree = build_separator_tree(
        Skeleton(gg.graph), make_geometric_finder(gg.coords));
    instances.push_back({std::move(gg), std::move(tree)});
  }
  {
    Rng rng(3);
    GeneratedGraph gg =
        make_random_digraph(80, 200, WeightModel::uniform(1, 9), rng);
    SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
    instances.push_back({std::move(gg), std::move(tree)});
  }
  for (std::size_t k = 0; k < instances.size(); ++k) {
    const Digraph& g = instances[k].gg.graph;
    const RoutingScheme scheme = RoutingScheme::build(g, instances[k].tree);
    const auto labeling = HubLabeling<TropicalD>::build(g, instances[k].tree);
    EXPECT_EQ(scheme.total_label_entries(), labeling.total_label_entries())
        << "instance " << k;
    const std::size_t n = g.num_vertices();
    std::vector<double> routed(n * n), labeled(n * n);
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = 0; v < n; ++v) {
        routed[u * n + v] = scheme.distance(u, v);
        labeled[u * n + v] = labeling.value(u, v);
      }
    }
    EXPECT_EQ(std::memcmp(routed.data(), labeled.data(),
                          routed.size() * sizeof(double)),
              0)
        << "instance " << k;
  }
}

}  // namespace
}  // namespace sepsp
