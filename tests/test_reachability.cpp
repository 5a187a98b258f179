// Reachability: the separator engine over the Boolean semiring
// (Algorithm 4.1's steps i-v with Boolean closures) against BFS and the
// dense transitive closure.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "baseline/reach.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

void check_engine_against_bfs(const Digraph& g, const SeparatorTree& tree,
                              std::span<const Vertex> sources) {
  const auto engine = SeparatorShortestPaths<BooleanSR>::build(g, tree);
  for (const Vertex s : sources) {
    const auto got = engine.distances(s).dist;
    const auto want = bfs_reachable(g, s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(got[v], want[v]) << "source " << s << " target " << v;
    }
  }
}

TEST(Reachability, DirectedGridWithRandomOrientation) {
  // Random subset of arcs of a grid: rich unreachable structure.
  Rng rng(1);
  const GeneratedGraph full = make_grid({9, 9}, WeightModel::unit(), rng);
  GraphBuilder b(full.graph.num_vertices());
  for (const EdgeTriple& e : full.graph.edge_list()) {
    if (rng.next_bool(0.6)) b.add_edge(e.from, e.to, 1.0);
  }
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_bfs_finder());
  const std::vector<Vertex> sources{0, 12, 40, 66, 80};
  check_engine_against_bfs(g, tree, sources);
}

TEST(Reachability, OneWayCycleReachesEverything) {
  Rng rng(2);
  const GeneratedGraph gg = make_cycle(64, WeightModel::unit(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
  const auto engine = SeparatorShortestPaths<BooleanSR>::build(gg.graph, tree);
  const auto reach = engine.distances(17).dist;
  for (Vertex v = 0; v < 64; ++v) EXPECT_TRUE(reach[v]);
}

TEST(Reachability, DagLayers) {
  // A DAG: v -> v + 1 and v -> v + 8 on an 8x8 index space.
  GraphBuilder b(64);
  for (Vertex v = 0; v < 64; ++v) {
    if (v % 8 != 7) b.add_edge(v, v + 1, 1.0);
    if (v + 8 < 64) b.add_edge(v, v + 8, 1.0);
  }
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({8, 8}));
  const std::vector<Vertex> sources{0, 9, 27, 63};
  check_engine_against_bfs(g, tree, sources);
}

TEST(Reachability, SparseRandomDigraphs) {
  Rng rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    const GeneratedGraph gg =
        make_random_digraph(120, 200 + 60 * trial, WeightModel::unit(), rng);
    const SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
    const std::vector<Vertex> sources{0, 60, 119};
    check_engine_against_bfs(gg.graph, tree, sources);
  }
}

TEST(Reachability, AugmentationUsesBooleanShortcuts) {
  Rng rng(4);
  const GeneratedGraph gg = make_grid({8, 8}, WeightModel::unit(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({8, 8}));
  const auto engine = SeparatorShortestPaths<BooleanSR>::build(gg.graph, tree);
  const LevelAssignment& levels = engine.augmentation().plan->levels;
  const EdgeBucket<BooleanSR>& eplus = engine.shortcut_edges();
  EXPECT_GT(eplus.size(), 0u);
  for (std::size_t s = 0; s < eplus.size(); ++s) {
    EXPECT_EQ(eplus.value(s), BooleanSR::one());
    EXPECT_TRUE(levels.defined(eplus.from_data()[s]));
    EXPECT_TRUE(levels.defined(eplus.to_data()[s]));
  }
}

TEST(Reachability, MatchesDenseClosureEverywhere) {
  Rng rng(5);
  const GeneratedGraph gg =
      make_random_digraph(60, 120, WeightModel::unit(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
  const auto engine = SeparatorShortestPaths<BooleanSR>::build(gg.graph, tree);
  const BitMatrix closure = transitive_closure_dense(gg.graph);
  for (Vertex s = 0; s < 60; s += 7) {
    const auto reach = engine.distances(s).dist;
    for (Vertex v = 0; v < 60; ++v) {
      ASSERT_EQ(reach[v] != 0, closure.get(s, v));
    }
  }
}

struct Instance {
  Digraph g;
  SeparatorTree tree;
};

// The graphs and decompositions of the tests above, rebuilt with the
// same seeds.
std::vector<Instance> suite_instances() {
  std::vector<Instance> out;
  auto add = [&](Digraph g, const SeparatorFinder& finder) {
    SeparatorTree tree = build_separator_tree(Skeleton(g), finder);
    out.push_back({std::move(g), std::move(tree)});
  };
  {
    Rng rng(1);
    const GeneratedGraph full = make_grid({9, 9}, WeightModel::unit(), rng);
    GraphBuilder b(full.graph.num_vertices());
    for (const EdgeTriple& e : full.graph.edge_list()) {
      if (rng.next_bool(0.6)) b.add_edge(e.from, e.to, 1.0);
    }
    add(std::move(b).build(), make_bfs_finder());
  }
  {
    Rng rng(2);
    add(make_cycle(64, WeightModel::unit(), rng).graph, make_bfs_finder());
  }
  {
    GraphBuilder b(64);
    for (Vertex v = 0; v < 64; ++v) {
      if (v % 8 != 7) b.add_edge(v, v + 1, 1.0);
      if (v + 8 < 64) b.add_edge(v, v + 8, 1.0);
    }
    add(std::move(b).build(), make_grid_finder({8, 8}));
  }
  {
    Rng rng(3);
    for (int trial = 0; trial < 3; ++trial) {
      add(make_random_digraph(120, 200 + 60 * trial, WeightModel::unit(), rng)
              .graph,
          make_bfs_finder());
    }
  }
  {
    Rng rng(4);
    add(make_grid({8, 8}, WeightModel::unit(), rng).graph,
        make_grid_finder({8, 8}));
  }
  {
    Rng rng(5);
    add(make_random_digraph(60, 120, WeightModel::unit(), rng).graph,
        make_bfs_finder());
  }
  return out;
}

TEST(Reachability, BooleanEplusIsTropicalSupport) {
  // Algorithm 4.1 over the Boolean semiring connects exactly the pairs
  // the tropical build connects by a finite path: the Boolean E+ is the
  // support of the tropical one, slot for slot.
  for (const Instance& inst : suite_instances()) {
    const auto reach =
        build_augmentation_recursive<BooleanSR>(inst.g, inst.tree);
    const auto dist =
        build_augmentation_recursive<TropicalD>(inst.g, inst.tree);
    ASSERT_EQ(reach.augmentation().plan, dist.augmentation().plan);
    const EdgeBucket<BooleanSR>& r = reach.shortcut_edges();
    const EdgeBucket<TropicalD>& d = dist.shortcut_edges();
    ASSERT_EQ(r.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(r.value(i), std::isfinite(d.value(i)) ? BooleanSR::one()
                                                      : BooleanSR::zero());
    }
  }
}

}  // namespace
}  // namespace sepsp
