// Extension features: the Remark-4.4 compact builder, the
// fundamental-cycle separator, unit-disk (overlap) graphs, and the
// q-face k-pair oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baseline/dijkstra.hpp"
#include "core/builder_compact.hpp"
#include "core/builder_recursive.hpp"
#include "core/engine.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "planar/hammock.hpp"
#include "planar/qface.hpp"
#include "separator/cycle_separator.hpp"
#include "separator/finders.hpp"

#include "edge_runs.hpp"

namespace sepsp {
namespace {

// --- Remark 4.4: compact shared-pairing builder --------------------------

TEST(CompactBuilder, QueriesMatchDijkstra) {
  Rng rng(1);
  const GeneratedGraph gg = make_grid({9, 9}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto engine = build_augmentation_compact<TropicalD>(gg.graph, tree);
  for (const Vertex src : {Vertex{0}, Vertex{40}, Vertex{80}}) {
    const auto got = engine.distances(src);
    ASSERT_FALSE(got.negative_cycle);
    const auto want = dijkstra(gg.graph, src);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8) << src << "->" << v;
    }
  }
}

TEST(CompactBuilder, ValuesBracketedByTrueDistAndPerNodeDist) {
  // Remark 4.4 weights may be tighter than per-node dist_{G(t)} but can
  // never undercut dist_G.
  Rng rng(2);
  const GeneratedGraph gg = make_grid({7, 7}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({7, 7}));
  const auto compact = build_augmentation_compact<TropicalD>(gg.graph, tree);
  const auto per_node =
      build_augmentation_recursive<TropicalD>(gg.graph, tree);
  // Same edge set as the per-node builders: one plan, slot for slot.
  ASSERT_EQ(compact.augmentation().plan, per_node.augmentation().plan);
  const EdgeBucket<TropicalD>& got = compact.shortcut_edges();
  const EdgeBucket<TropicalD>& node = per_node.shortcut_edges();
  ASSERT_EQ(got.size(), node.size());
  const PairBlock& slots = compact.augmentation().plan->slots;
  const std::vector<Vertex> slot_from = slot_tails(slots);
  std::map<Vertex, DijkstraResult> truth;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const Vertex u = slot_from[s];
    auto [it, inserted] = truth.try_emplace(u);
    if (inserted) it->second = dijkstra(gg.graph, u);
    EXPECT_GE(got.value(s), it->second.dist[slots.to[s]] - 1e-9);
    EXPECT_LE(got.value(s), node.value(s) + 1e-9);
  }
}

TEST(CompactBuilder, NegativeWeightsAndOtherSemirings) {
  Rng rng(3);
  const GeneratedGraph gg = make_grid({7, 7}, WeightModel::mixed_sign(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({7, 7}));
  {
    const auto engine = build_augmentation_compact<TropicalD>(gg.graph, tree);
    const auto got = engine.distances(0);
    ASSERT_FALSE(got.negative_cycle);
    const auto want =
        SeparatorShortestPaths<>::build(gg.graph, tree).distances(0);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8);
    }
  }
  {
    const auto engine = build_augmentation_compact<BooleanSR>(gg.graph, tree);
    const auto got = engine.distances(0);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_EQ(got.dist[v], 1);  // grid is strongly connected
    }
  }
}

// --- fundamental-cycle separator -----------------------------------------

TEST(CycleFinder, DecomposesPlanarMesh) {
  Rng rng(4);
  const GeneratedGraph gg =
      make_triangulated_grid(12, 12, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree =
      build_separator_tree(skel, make_cycle_finder(gg.coords));
  const auto err = tree.validate(skel);
  EXPECT_EQ(err, std::nullopt) << (err ? *err : "");
  // Separators should stay far below n.
  EXPECT_LE(tree.stats().max_separator, gg.graph.num_vertices() / 2);
}

TEST(CycleFinder, EndToEndDistances) {
  Rng rng(5);
  const GeneratedGraph gg =
      make_triangulated_grid(9, 9, WeightModel::uniform(1, 6), rng);
  const SeparatorTree tree = build_separator_tree(
      Skeleton(gg.graph), make_cycle_finder(gg.coords, 3));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto got = engine.distances(0);
  const auto want = dijkstra(gg.graph, 0);
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
    EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8);
  }
}

TEST(CycleFinder, DeclinesOnTrees) {
  Rng rng(6);
  const GeneratedGraph gg = make_random_tree(60, WeightModel::unit(), rng);
  std::vector<std::array<double, 3>> coords(60, {0, 0, 0});
  const Skeleton skel(gg.graph);
  // No cycles exist; the builder's fallback chain must still decompose.
  const SeparatorTree tree =
      build_separator_tree(skel, make_cycle_finder(coords));
  EXPECT_EQ(tree.validate(skel), std::nullopt);
}

// --- unit-disk (overlap) graphs -------------------------------------------

TEST(UnitDisk, ShapeAndSeparators) {
  Rng rng(7);
  const GeneratedGraph gg =
      make_unit_disk(600, 8.0, WeightModel::uniform(1, 5), rng);
  EXPECT_EQ(gg.graph.num_vertices(), 600u);
  const Skeleton skel(gg.graph);
  const double avg_degree =
      2.0 * static_cast<double>(skel.num_edges()) / 600.0;
  EXPECT_GT(avg_degree, 3.0);
  EXPECT_LT(avg_degree, 16.0);
  const SeparatorTree tree =
      build_separator_tree(skel, make_geometric_finder(gg.coords));
  EXPECT_EQ(tree.validate(skel), std::nullopt);
  // The r-overlap family: O(sqrt n)-ish geometric separators.
  EXPECT_LE(tree.stats().max_separator, 140u);
}

TEST(UnitDisk, EngineMatchesDijkstraOnLargestComponent) {
  Rng rng(8);
  const GeneratedGraph gg =
      make_unit_disk(400, 9.0, WeightModel::uniform(1, 5), rng);
  const SeparatorTree tree = build_separator_tree(
      Skeleton(gg.graph), make_geometric_finder(gg.coords));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto got = engine.distances(0);
  const auto want = dijkstra(gg.graph, 0);
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
    if (std::isinf(want.dist[v])) {
      EXPECT_TRUE(std::isinf(got.dist[v]));
    } else {
      EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8);
    }
  }
}

// --- q-face k-pair oracle --------------------------------------------------

TEST(PairOracle, MatchesDijkstraOnRandomPairs) {
  Rng rng(11);
  const HammockGraph hg =
      make_hammock_ring(6, 7, WeightModel::uniform(1, 9), rng);
  const QFacePipeline pipeline = QFacePipeline::build(hg);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  Rng pick(12);
  for (int i = 0; i < 30; ++i) {
    pairs.emplace_back(
        static_cast<Vertex>(pick.next_below(hg.graph.num_vertices())),
        static_cast<Vertex>(pick.next_below(hg.graph.num_vertices())));
  }
  const std::vector<double> got = pipeline.distance_pairs(pairs);
  std::map<Vertex, DijkstraResult> cache;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    auto [it, inserted] = cache.try_emplace(pairs[i].first);
    if (inserted) it->second = dijkstra(hg.graph, pairs[i].first);
    EXPECT_NEAR(got[i], it->second.dist[pairs[i].second], 1e-8)
        << pairs[i].first << "->" << pairs[i].second;
  }
}

TEST(PairOracle, SameHammockPairsIncludeLocalPaths) {
  Rng rng(13);
  const HammockGraph hg =
      make_hammock_ring(5, 9, WeightModel::uniform(1, 9), rng);
  const QFacePipeline pipeline = QFacePipeline::build(hg);
  // Two interior vertices of hammock 2.
  const Vertex u = hg.hammocks[2].vertices[4];
  const Vertex v = hg.hammocks[2].vertices[9];
  const std::vector<std::pair<Vertex, Vertex>> pairs{{u, v}, {v, u}, {u, u}};
  const auto got = pipeline.distance_pairs(pairs);
  const auto dj_u = dijkstra(hg.graph, u);
  const auto dj_v = dijkstra(hg.graph, v);
  EXPECT_NEAR(got[0], dj_u.dist[v], 1e-8);
  EXPECT_NEAR(got[1], dj_v.dist[u], 1e-8);
  EXPECT_NEAR(got[2], 0.0, 1e-12);
}

}  // namespace
}  // namespace sepsp
