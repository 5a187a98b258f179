// End-to-end smoke test: generate a grid, decompose, build E+ with both
// algorithms, and check every distance against Dijkstra.
#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

TEST(Smoke, GridEndToEnd) {
  Rng rng(42);
  const std::vector<std::size_t> dims = {9, 9};
  const GeneratedGraph gg =
      make_grid(dims, WeightModel::uniform(1.0, 10.0), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree =
      build_separator_tree(skel, make_grid_finder(dims));
  ASSERT_EQ(tree.validate(skel), std::nullopt) << *tree.validate(skel);

  // Algorithm 4.1 is the engine's build; Algorithm 4.3's E+ is wrapped
  // in the same engine class.
  for (const bool doubling : {false, true}) {
    const auto engine =
        doubling ? build_augmentation_doubling<TropicalD>(gg.graph, tree)
                 : SeparatorShortestPaths<>::build(gg.graph, tree);
    for (const Vertex source : {Vertex{0}, Vertex{40}, Vertex{80}}) {
      const QueryResult<TropicalD> got = engine.distances(source);
      ASSERT_FALSE(got.negative_cycle);
      const DijkstraResult want = dijkstra(gg.graph, source);
      for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
        EXPECT_NEAR(got.dist[v], want.dist[v], 1e-9)
            << "source " << source << " target " << v;
      }
    }
  }
}

}  // namespace
}  // namespace sepsp
