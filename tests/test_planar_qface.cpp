// Section 6: hammock-structured graphs and the q-face pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/dijkstra.hpp"
#include "baseline/bellman_ford.hpp"
#include "graph/algorithms.hpp"
#include "planar/hammock.hpp"
#include "planar/qface.hpp"

namespace sepsp {
namespace {

TEST(Hammock, RingStructure) {
  Rng rng(1);
  const HammockGraph hg =
      make_hammock_ring(8, 10, WeightModel::uniform(1, 9), rng);
  EXPECT_EQ(hg.num_hammocks(), 8u);
  EXPECT_EQ(hg.graph.num_vertices(), 2u * 10u * 8u);
  EXPECT_TRUE(is_connected(Skeleton(hg.graph)));
  EXPECT_EQ(hg.attachment_vertices().size(), 32u);
  // Every vertex belongs to exactly one hammock; attachments are members.
  for (const Hammock& h : hg.hammocks) {
    for (const Vertex a : h.attachments) {
      EXPECT_TRUE(std::binary_search(h.vertices.begin(), h.vertices.end(), a));
    }
  }
}

TEST(Hammock, CrossEdgesOnlyBetweenAttachments) {
  Rng rng(2);
  const HammockGraph hg =
      make_hammock_ring(6, 7, WeightModel::uniform(1, 5), rng);
  const auto attach = hg.attachment_vertices();
  auto is_attachment = [&](Vertex v) {
    return std::binary_search(attach.begin(), attach.end(), v);
  };
  for (const EdgeTriple& e : hg.graph.edge_list()) {
    if (hg.hammock_of[e.from] != hg.hammock_of[e.to]) {
      EXPECT_TRUE(is_attachment(e.from));
      EXPECT_TRUE(is_attachment(e.to));
    }
  }
}

TEST(Hammock, HammocksAreOuterplanarLadders) {
  Rng rng(3);
  const HammockGraph hg =
      make_hammock_ring(5, 9, WeightModel::uniform(1, 5), rng);
  for (const Hammock& h : hg.hammocks) {
    const Digraph::Induced sub = hg.graph.induced(h.vertices);
    const Skeleton s(sub.graph);
    // Ladder with r rungs: 2r vertices, 3r - 2 undirected edges.
    EXPECT_EQ(s.num_vertices(), 18u);
    EXPECT_EQ(s.num_edges(), 25u);
    EXPECT_TRUE(is_connected(s));
  }
}

TEST(QFace, ReducedGraphIsOrderQ) {
  Rng rng(4);
  const HammockGraph hg =
      make_hammock_ring(10, 20, WeightModel::uniform(1, 9), rng);
  const QFacePipeline p = QFacePipeline::build(hg);
  EXPECT_EQ(p.reduced_vertices(), 40u);  // 4 per hammock
  EXPECT_LE(p.reduced_edges(), 10u * 12u + 4u * 10u);
}

TEST(QFace, DistancesMatchDijkstraOnWholeGraph) {
  Rng rng(5);
  const HammockGraph hg =
      make_hammock_ring(7, 8, WeightModel::uniform(1, 9), rng);
  const QFacePipeline p = QFacePipeline::build(hg);
  Rng pick(6);
  for (int trial = 0; trial < 4; ++trial) {
    const auto source =
        static_cast<Vertex>(pick.next_below(hg.graph.num_vertices()));
    const std::vector<double> got = p.distances(source);
    const DijkstraResult want = dijkstra(hg.graph, source);
    for (Vertex v = 0; v < hg.graph.num_vertices(); ++v) {
      if (std::isinf(want.dist[v])) {
        EXPECT_TRUE(std::isinf(got[v]));
      } else {
        EXPECT_NEAR(got[v], want.dist[v], 1e-8)
            << "source " << source << " target " << v;
      }
    }
  }
}

TEST(QFace, NegativeWeightsViaPotentials) {
  Rng rng(7);
  const HammockGraph hg =
      make_hammock_ring(6, 6, WeightModel::mixed_sign(6.0), rng);
  const QFacePipeline p = QFacePipeline::build(hg);
  const std::vector<double> got = p.distances(0);
  const BellmanFordResult want = bellman_ford(hg.graph, 0);
  ASSERT_FALSE(want.negative_cycle);
  for (Vertex v = 0; v < hg.graph.num_vertices(); ++v) {
    EXPECT_NEAR(got[v], want.dist[v], 1e-8) << v;
  }
}

TEST(QFace, PointToPointQueries) {
  Rng rng(8);
  const HammockGraph hg =
      make_hammock_ring(5, 6, WeightModel::uniform(1, 9), rng);
  const QFacePipeline p = QFacePipeline::build(hg);
  const DijkstraResult want = dijkstra(hg.graph, 3);
  EXPECT_NEAR(p.distance(3, 40), want.dist[40], 1e-8);
  EXPECT_NEAR(p.distance(3, 3), 0.0, 1e-12);
}

}  // namespace
}  // namespace sepsp
