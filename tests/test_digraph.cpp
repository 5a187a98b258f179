// Unit tests for the CSR digraph and its builder.
#include <gtest/gtest.h>

#include "graph/digraph.hpp"

namespace sepsp {
namespace {

Digraph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(2, 0, 3.0);
  return std::move(b).build();
}

TEST(Digraph, BasicShape) {
  const Digraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(g.out(0).size(), 1u);
  EXPECT_EQ(g.out(0)[0].to, 1u);
  EXPECT_DOUBLE_EQ(g.out(0)[0].weight, 1.0);
  EXPECT_EQ(g.out_degree(2), 1u);
  double total = 0;
  for (const Arc& a : g.arcs()) total += a.weight;
  EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(Digraph, EmptyGraph) {
  const Digraph g = std::move(*std::make_unique<GraphBuilder>(0)).build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Digraph, IsolatedVertices) {
  GraphBuilder b(5);
  b.add_edge(1, 3, 1.5);
  const Digraph g = std::move(b).build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.out_degree(0), 0u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(4), 0u);
}

TEST(GraphBuilder, DedupKeepsMinimumWeight) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 5.0);
  b.add_edge(0, 1, 2.0);
  b.add_edge(0, 1, 9.0);
  const Digraph g = std::move(b).build(/*dedup_min=*/true);
  EXPECT_EQ(g.num_edges(), 1u);
  double w = 0;
  EXPECT_TRUE(g.find_arc(0, 1, &w));
  EXPECT_DOUBLE_EQ(w, 2.0);
}

TEST(GraphBuilder, NoDedupKeepsParallelArcs) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 5.0);
  b.add_edge(0, 1, 2.0);
  const Digraph g = std::move(b).build(/*dedup_min=*/false);
  EXPECT_EQ(g.num_edges(), 2u);
  double w = 0;
  EXPECT_TRUE(g.find_arc(0, 1, &w));
  EXPECT_DOUBLE_EQ(w, 2.0);  // find_arc reports the min among parallels
}

TEST(GraphBuilder, AddBidirectional) {
  GraphBuilder b(2);
  b.add_bidirectional(0, 1, 4.0);
  const Digraph g = std::move(b).build();
  EXPECT_TRUE(g.find_arc(0, 1));
  EXPECT_TRUE(g.find_arc(1, 0));
}

TEST(Digraph, FindArcNegativeCases) {
  const Digraph g = triangle();
  EXPECT_FALSE(g.find_arc(0, 2));
  EXPECT_FALSE(g.find_arc(1, 0));
}

TEST(Digraph, SourceOfMatchesEdgeList) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(3, 0, 1);
  const Digraph g = std::move(b).build();
  const auto edges = g.edge_list();
  ASSERT_EQ(edges.size(), g.num_edges());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(g.source_of(i), edges[i].from);
  }
}

TEST(Digraph, TransposeReversesEverything) {
  const Digraph g = triangle();
  const Digraph t = g.transpose();
  EXPECT_EQ(t.num_edges(), 3u);
  double w = 0;
  EXPECT_TRUE(t.find_arc(1, 0, &w));
  EXPECT_DOUBLE_EQ(w, 1.0);
  EXPECT_TRUE(t.find_arc(0, 2, &w));
  EXPECT_DOUBLE_EQ(w, 3.0);
  // Double transpose is the identity.
  const Digraph tt = t.transpose();
  EXPECT_EQ(tt.edge_list(), g.edge_list());
}

TEST(Digraph, InducedSubgraphKeepsInternalArcsOnly) {
  GraphBuilder b(5);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 3, 3);  // leaves the subset
  b.add_edge(3, 4, 4);
  b.add_edge(4, 0, 5);  // enters the subset
  const Digraph g = std::move(b).build();
  const std::vector<Vertex> subset{0, 1, 2};
  const Digraph::Induced ind = g.induced(subset);
  EXPECT_EQ(ind.graph.num_vertices(), 3u);
  EXPECT_EQ(ind.graph.num_edges(), 2u);
  EXPECT_EQ(ind.local_of[0], 0u);
  EXPECT_EQ(ind.local_of[3], kInvalidVertex);
  EXPECT_EQ(ind.global_of[2], 2u);
  double w = 0;
  EXPECT_TRUE(ind.graph.find_arc(ind.local_of[1], ind.local_of[2], &w));
  EXPECT_DOUBLE_EQ(w, 2.0);
}

TEST(Digraph, ArcSourcesMatchesEdgeListAndIsShared) {
  GraphBuilder b(6);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 1);
  b.add_edge(2, 2, 1);  // self-loop
  b.add_edge(4, 0, 1);  // vertex 3 has no out-arcs: skipped in the index
  b.add_edge(4, 5, 1);
  const Digraph g = std::move(b).build();
  const auto sources = g.arc_sources();
  const auto edges = g.edge_list();
  ASSERT_EQ(sources.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(sources[i], edges[i].from) << "arc " << i;
    EXPECT_EQ(g.source_of(i), edges[i].from) << "arc " << i;
  }
  // Copies share the memoized index (same underlying storage).
  const Digraph copy = g;
  EXPECT_EQ(copy.arc_sources().data(), sources.data());
}

TEST(Digraph, ArcsAreSortedByTarget) {
  GraphBuilder b(4);
  b.add_edge(0, 3, 1);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 1);
  const Digraph g = std::move(b).build();
  const auto arcs = g.out(0);
  ASSERT_EQ(arcs.size(), 3u);
  EXPECT_EQ(arcs[0].to, 1u);
  EXPECT_EQ(arcs[1].to, 2u);
  EXPECT_EQ(arcs[2].to, 3u);
}

}  // namespace
}  // namespace sepsp
