// Cross-module integration tests at moderate scale: the full pipeline
// (generate -> decompose -> augment -> query -> extract trees) on every
// family at once, plus cost-accounting sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/dijkstra.hpp"
#include "baseline/johnson.hpp"
#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "core/path_tree.hpp"
#include "graph/generators.hpp"
#include "pram/cost_model.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

TEST(Integration, LargeGridManySources) {
  Rng rng(1);
  const std::vector<std::size_t> dims = {24, 24};
  const GeneratedGraph gg = make_grid(dims, WeightModel::uniform(1, 10), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder(dims));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);

  std::vector<Vertex> sources;
  Rng pick(2);
  for (int i = 0; i < 12; ++i) {
    sources.push_back(
        static_cast<Vertex>(pick.next_below(gg.graph.num_vertices())));
  }
  const auto batch = engine.distances_batch(sources);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const DijkstraResult want = dijkstra(gg.graph, sources[i]);
    double max_err = 0;
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      max_err = std::max(max_err, std::fabs(batch[i].dist[v] - want.dist[v]));
    }
    EXPECT_LT(max_err, 1e-8) << "source " << sources[i];
  }
}

TEST(Integration, MixedSign3DGridFullPipeline) {
  Rng rng(3);
  const std::vector<std::size_t> dims = {6, 6, 6};
  const GeneratedGraph gg = make_grid(dims, WeightModel::mixed_sign(9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder(dims));
  ASSERT_EQ(tree.validate(Skeleton(gg.graph)), std::nullopt);

  const auto engine = build_augmentation_doubling<TropicalD>(gg.graph, tree);
  const auto johnson = Johnson::build(gg.graph);
  ASSERT_TRUE(johnson.has_value());

  const Vertex source = 111;
  const auto got = engine.distances(source);
  ASSERT_FALSE(got.negative_cycle);
  const auto want = johnson->distances(source);
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
    EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8);
  }
  // Shortest-path tree extraction works on negative weights too.
  const PathTree pt = extract_path_tree(gg.graph, source, got.dist);
  const auto far = static_cast<Vertex>(gg.graph.num_vertices() - 1);
  EXPECT_NEAR(tree_path_weight(gg.graph, pt, far), got.dist[far], 1e-6);
}

TEST(Integration, CostMeterGrowsWithWork) {
  Rng rng(4);
  const std::vector<std::size_t> dims = {12, 12};
  const GeneratedGraph gg = make_grid(dims, WeightModel::uniform(1, 5), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder(dims));

  const pram::Cost before = pram::CostMeter::snapshot();
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const pram::Cost after_build = pram::CostMeter::snapshot();
  EXPECT_GT(after_build.work, before.work);
  EXPECT_EQ(engine.augmentation().build_cost.work,
            after_build.work - before.work);
  EXPECT_GT(engine.augmentation().critical_depth, 0u);

  (void)engine.distances(0);
  const pram::Cost after_query = pram::CostMeter::snapshot();
  EXPECT_GT(after_query.work, after_build.work);
}

TEST(Integration, AllPairsOnSmallGraphIsSymmetricallyConsistent) {
  Rng rng(5);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  std::vector<Vertex> every(gg.graph.num_vertices());
  for (Vertex v = 0; v < every.size(); ++v) every[v] = v;
  const auto apsp = engine.distances_batch(every);
  ASSERT_EQ(apsp.size(), 25u);
  // Triangle inequality across the all-pairs table.
  for (Vertex a = 0; a < 25; ++a) {
    for (Vertex b = 0; b < 25; ++b) {
      for (Vertex c = 0; c < 25; c += 7) {
        EXPECT_LE(apsp[a].dist[b],
                  apsp[a].dist[c] + apsp[c].dist[b] + 1e-9);
      }
    }
  }
}

TEST(Integration, EngineWorksWhenLeafSizeVaries) {
  Rng rng(6);
  const std::vector<std::size_t> dims = {10, 10};
  const GeneratedGraph gg = make_grid(dims, WeightModel::uniform(1, 9), rng);
  const Skeleton skel(gg.graph);
  const DijkstraResult want = dijkstra(gg.graph, 42);
  for (const std::size_t leaf_size : {2u, 6u, 25u}) {
    DecompositionOptions dopts;
    dopts.leaf_size = leaf_size;
    const SeparatorTree tree =
        build_separator_tree(skel, make_grid_finder(dims), dopts);
    const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
    const auto got = engine.distances(42);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8)
          << "leaf_size " << leaf_size << " v " << v;
    }
  }
}

TEST(Integration, WrongTreeSizeIsRejected) {
  Rng rng(7);
  const GeneratedGraph a = make_grid({4, 4}, WeightModel::unit(), rng);
  const GeneratedGraph b = make_grid({5, 5}, WeightModel::unit(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(a.graph), make_grid_finder({4, 4}));
  EXPECT_DEATH(
      { (void)SeparatorShortestPaths<>::build(b.graph, tree); }, "check");
}

}  // namespace
}  // namespace sepsp
