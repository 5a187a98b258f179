// Delta-stepping and negative-cycle extraction.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "baseline/negative_cycle.hpp"
#include "graph/generators.hpp"

namespace sepsp {
namespace {

TEST(DeltaStepping, MatchesDijkstraAcrossFamilies) {
  Rng rng(1);
  const std::vector<GeneratedGraph> graphs = {
      make_grid({12, 12}, WeightModel::uniform(1, 10), rng),
      make_random_digraph(200, 900, WeightModel::uniform(0.1, 20), rng),
      make_random_tree(150, WeightModel::uniform(1, 3), rng),
      make_path(64, WeightModel::uniform(1, 2), rng),
  };
  for (const auto& gg : graphs) {
    for (const Vertex src : {Vertex{0}, Vertex{10}}) {
      const DeltaSteppingResult got = delta_stepping(gg.graph, src);
      const DijkstraResult want = dijkstra(gg.graph, src);
      for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
        if (std::isinf(want.dist[v])) {
          EXPECT_TRUE(std::isinf(got.dist[v]));
        } else {
          EXPECT_NEAR(got.dist[v], want.dist[v], 1e-9) << v;
        }
      }
    }
  }
}

TEST(DeltaStepping, DeltaSweepAllCorrect) {
  Rng rng(2);
  const GeneratedGraph gg =
      make_grid({10, 10}, WeightModel::uniform(1, 10), rng);
  const DijkstraResult want = dijkstra(gg.graph, 0);
  for (const double delta : {0.5, 2.0, 8.0, 100.0}) {
    const DeltaSteppingResult got = delta_stepping(gg.graph, 0, delta);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_NEAR(got.dist[v], want.dist[v], 1e-9)
          << "delta " << delta << " v " << v;
    }
  }
}

TEST(DeltaStepping, ZeroWeightEdgesConverge) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 0.0);
  b.add_edge(1, 2, 0.0);
  b.add_edge(2, 3, 1.0);
  const Digraph g = std::move(b).build();
  const DeltaSteppingResult r = delta_stepping(g, 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 1.0);
}

TEST(DeltaStepping, BucketPhasesScaleWithDiameterOverDelta) {
  Rng rng(3);
  const GeneratedGraph gg = make_path(200, WeightModel::unit(), rng);
  const DeltaSteppingResult coarse = delta_stepping(gg.graph, 0, 100.0);
  const DeltaSteppingResult fine = delta_stepping(gg.graph, 0, 1.0);
  EXPECT_LT(coarse.bucket_phases, fine.bucket_phases);
}

TEST(NegativeCycle, FindsPlantedCycle) {
  Rng rng(4);
  GeneratedGraph gg = make_grid({8, 8}, WeightModel::uniform(1, 5), rng);
  GraphBuilder b(gg.graph.num_vertices());
  b.add_edges(gg.graph.edge_list());
  b.add_edge(3, 20, 1.0);
  b.add_edge(20, 35, 1.0);
  b.add_edge(35, 3, -9.0);
  const Digraph g = std::move(b).build();
  const auto cycle = find_negative_cycle(g);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 2u);
  EXPECT_LT(cycle_weight(g, *cycle), 0.0);
}

TEST(NegativeCycle, NoneOnCleanGraphs) {
  Rng rng(5);
  const GeneratedGraph a = make_grid({7, 7}, WeightModel::mixed_sign(), rng);
  EXPECT_FALSE(find_negative_cycle(a.graph).has_value());
  const GeneratedGraph b = make_grid({7, 7}, WeightModel::uniform(1, 9), rng);
  EXPECT_FALSE(find_negative_cycle(b.graph).has_value());
}

TEST(NegativeCycle, TightZeroCycleIsNotNegative) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 0, -2.0);
  EXPECT_FALSE(find_negative_cycle(std::move(b).build()).has_value());
}

}  // namespace
}  // namespace sepsp
