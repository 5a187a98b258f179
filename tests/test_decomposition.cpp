// Separator decomposition tests: every finder on every matching family,
// with the full invariant validator, plus the fallback chain on
// adversarial graphs (cliques, stars, disconnected graphs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "separator/decomposition.hpp"
#include "separator/finders.hpp"
#include "separator/treewidth_separator.hpp"
#include "core/engine.hpp"
#include "baseline/dijkstra.hpp"
#include <cmath>

namespace sepsp {
namespace {

void expect_valid(const SeparatorTree& tree, const Skeleton& skel) {
  const auto err = tree.validate(skel);
  EXPECT_EQ(err, std::nullopt) << (err ? *err : "");
}

TEST(Decomposition, GridFinderOn2DGrid) {
  Rng rng(1);
  const std::vector<std::size_t> dims = {16, 16};
  const GeneratedGraph gg = make_grid(dims, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_grid_finder(dims));
  expect_valid(tree, skel);
  const auto s = tree.stats();
  EXPECT_LE(s.max_separator, 16u);      // a grid slice
  EXPECT_LE(s.height, 12u);             // logarithmic
  EXPECT_LE(s.max_leaf_vertices, 4u);   // default leaf size
}

TEST(Decomposition, GridFinderOn3DGrid) {
  Rng rng(2);
  const std::vector<std::size_t> dims = {6, 6, 6};
  const GeneratedGraph gg = make_grid(dims, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_grid_finder(dims));
  expect_valid(tree, skel);
  EXPECT_LE(tree.stats().max_separator, 36u);  // a 6x6 plane
}

TEST(Decomposition, TreeFinderGivesSingletonSeparators) {
  Rng rng(3);
  const GeneratedGraph gg = make_random_tree(300, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_tree_finder());
  expect_valid(tree, skel);
  const auto s = tree.stats();
  EXPECT_EQ(s.max_separator, 1u);
  EXPECT_LE(s.height, 2 * 20u);  // centroid halving -> O(log n) levels
}

TEST(Decomposition, GeometricFinderOnTriangulatedGrid) {
  Rng rng(4);
  const GeneratedGraph gg =
      make_triangulated_grid(15, 15, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree =
      build_separator_tree(skel, make_geometric_finder(gg.coords));
  expect_valid(tree, skel);
  // A planar mesh should get small separators (O(sqrt n) up to constants).
  EXPECT_LE(tree.stats().max_separator, 45u);
}

TEST(Decomposition, BfsFinderOnRandomGraph) {
  Rng rng(5);
  const GeneratedGraph gg =
      make_random_digraph(200, 600, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_bfs_finder());
  expect_valid(tree, skel);
}

TEST(Decomposition, NullFinderFallbackChainStillValid) {
  Rng rng(6);
  const GeneratedGraph gg = make_grid({10, 10}, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_null_finder());
  expect_valid(tree, skel);
  // The fallback is the BFS finder's routine, so every split comes from
  // it either way: the two trees are identical node for node.
  const SeparatorTree bfs = build_separator_tree(skel, make_bfs_finder());
  ASSERT_EQ(tree.num_nodes(), bfs.num_nodes());
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& a = tree.node(id);
    const DecompNode& b = bfs.node(id);
    EXPECT_EQ(a.vertices, b.vertices) << "node " << id;
    EXPECT_EQ(a.separator, b.separator) << "node " << id;
    EXPECT_EQ(a.boundary, b.boundary) << "node " << id;
    EXPECT_EQ(a.parent, b.parent) << "node " << id;
    EXPECT_EQ(a.child, b.child) << "node " << id;
    EXPECT_EQ(a.level, b.level) << "node " << id;
  }
}

TEST(Decomposition, CompleteGraphBecomesOversizedLeafOrPeels) {
  Rng rng(7);
  const GeneratedGraph gg = make_complete(9, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_bfs_finder());
  expect_valid(tree, skel);
  // K_9 has no separator: the whole graph must end up in one leaf.
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.stats().max_leaf_vertices, 9u);
}

TEST(Decomposition, StarGraphSeparatesAtCenter) {
  GraphBuilder b(21);
  for (Vertex leaf = 1; leaf <= 20; ++leaf) b.add_bidirectional(0, leaf, 1.0);
  const Digraph g = std::move(b).build();
  const Skeleton skel(g);
  const SeparatorTree tree = build_separator_tree(skel, make_tree_finder());
  expect_valid(tree, skel);
  EXPECT_EQ(tree.root().separator, std::vector<Vertex>{0});
}

TEST(Decomposition, DisconnectedGraphUsesEmptySeparator) {
  GraphBuilder b(8);
  b.add_bidirectional(0, 1, 1);
  b.add_bidirectional(2, 3, 1);
  b.add_bidirectional(4, 5, 1);
  b.add_bidirectional(6, 7, 1);
  const Digraph g = std::move(b).build();
  const Skeleton skel(g);
  DecompositionOptions opts;
  opts.leaf_size = 2;
  const SeparatorTree tree =
      build_separator_tree(skel, make_bfs_finder(), opts);
  expect_valid(tree, skel);
  EXPECT_TRUE(tree.root().separator.empty());
}

TEST(Decomposition, LeafSizeSweep) {
  Rng rng(8);
  const std::vector<std::size_t> dims = {12, 12};
  const GeneratedGraph gg = make_grid(dims, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  // leaf_size 1 is unattainable on any graph with an edge (a 2-clique has
  // no separator); 2 is the practical minimum.
  for (const std::size_t leaf_size : {2u, 3u, 8u, 32u}) {
    DecompositionOptions opts;
    opts.leaf_size = leaf_size;
    const SeparatorTree tree =
        build_separator_tree(skel, make_grid_finder(dims), opts);
    expect_valid(tree, skel);
    EXPECT_LE(tree.stats().max_leaf_vertices, leaf_size) << leaf_size;
  }
}

TEST(Decomposition, SingleVertexGraph) {
  GraphBuilder b(1);
  const Digraph g = std::move(b).build();
  const Skeleton skel(g);
  const SeparatorTree tree = build_separator_tree(skel, make_bfs_finder());
  expect_valid(tree, skel);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(Decomposition, LeafIdsListEveryLeaf) {
  Rng rng(9);
  const std::vector<std::size_t> dims = {8, 8};
  const GeneratedGraph gg = make_grid(dims, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_grid_finder(dims));
  for (const std::size_t id : tree.leaf_ids()) {
    EXPECT_TRUE(tree.node(id).is_leaf());
  }
  EXPECT_EQ(tree.leaf_ids().size(), tree.stats().num_leaves);
}

TEST(Decomposition, PrintProducesTreeListing) {
  Rng rng(10);
  const std::vector<std::size_t> dims = {4, 4};
  const GeneratedGraph gg = make_grid(dims, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_grid_finder(dims));
  std::ostringstream os;
  tree.print(os);
  EXPECT_NE(os.str().find("SeparatorTree"), std::string::npos);
  EXPECT_NE(os.str().find("leaf"), std::string::npos);
}

TEST(Decomposition, ValidatorCatchesCorruption) {
  Rng rng(11);
  const std::vector<std::size_t> dims = {6, 6};
  const GeneratedGraph gg = make_grid(dims, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_grid_finder(dims));
  // A skeleton of the wrong size must be rejected.
  const GeneratedGraph other = make_grid({5, 5}, WeightModel::unit(), rng);
  EXPECT_NE(tree.validate(Skeleton(other.graph)), std::nullopt);
}

// The slot plan's bucket layout: the slots are in sweep order, the
// bucket table splits them into 3 (height + 1) ranges, every range is
// (from, to)-sorted, and every slot lies in the range its endpoints'
// levels name.
void expect_bucket_layout(const SeparatorTree& tree, const std::string& what) {
  const EplusPlan& plan = *tree.eplus_plan();
  const LevelAssignment& lv = plan.levels;
  ASSERT_EQ(lv.height, tree.height()) << what;
  const std::size_t buckets = EplusPlan::num_buckets(lv.height);
  ASSERT_EQ(buckets, 3 * plan.num_levels()) << what;
  ASSERT_EQ(plan.bucket_offset.size(), buckets + 1) << what;
  EXPECT_EQ(plan.bucket_offset.front(), 0u) << what;
  EXPECT_EQ(plan.bucket_offset.back(), plan.num_slots()) << what;
  // Sweep order: the down sweep's same(h), down(h), ..., same(0),
  // down(0), then up(0..h) — every (kind, level) once.
  std::vector<int> rank_seen(buckets, 0);
  for (std::uint32_t l = 0; l <= lv.height; ++l) {
    const std::size_t down_from_top = 2 * std::size_t{lv.height - l};
    const std::size_t same =
        EplusPlan::bucket_rank(EplusPlan::kSame, l, lv.height);
    const std::size_t down =
        EplusPlan::bucket_rank(EplusPlan::kDown, l, lv.height);
    const std::size_t up = EplusPlan::bucket_rank(EplusPlan::kUp, l, lv.height);
    EXPECT_EQ(same, down_from_top) << what;
    EXPECT_EQ(down, down_from_top + 1) << what;
    EXPECT_EQ(up, 2 * plan.num_levels() + l) << what;
    for (const std::size_t k : {same, down, up}) {
      ASSERT_LT(k, buckets) << what;
      ++rank_seen[k];
    }
  }
  EXPECT_EQ(std::count(rank_seen.begin(), rank_seen.end(), 1),
            static_cast<std::ptrdiff_t>(buckets))
      << what;
  for (std::size_t k = 0; k < buckets; ++k) {
    ASSERT_LE(plan.bucket_offset[k], plan.bucket_offset[k + 1]) << what;
    for (std::size_t s = plan.bucket_offset[k] + 1;
         s < plan.bucket_offset[k + 1]; ++s) {
      EXPECT_TRUE(plan.slots.from[s - 1] < plan.slots.from[s] ||
                  (plan.slots.from[s - 1] == plan.slots.from[s] &&
                   plan.slots.to[s - 1] < plan.slots.to[s]))
          << what << " bucket " << k << " slot " << s;
    }
  }
  ASSERT_EQ(plan.slots.to.size(), plan.num_slots()) << what;
  for (std::size_t s = 0; s < plan.num_slots(); ++s) {
    const Vertex u = plan.slots.from[s];
    const Vertex v = plan.slots.to[s];
    // Every slot joins two vertices of some S(t) or B(t): both levelled.
    ASSERT_TRUE(lv.defined(u) && lv.defined(v)) << what << " slot " << s;
    const EplusPlan::Kind kind = lv.level[u] == lv.level[v] ? EplusPlan::kSame
                                 : lv.level[u] > lv.level[v] ? EplusPlan::kDown
                                                             : EplusPlan::kUp;
    const std::size_t k =
        EplusPlan::bucket_rank(kind, lv.level[u], lv.height);
    EXPECT_GE(s, plan.bucket_offset[k]) << what << " slot " << s;
    EXPECT_LT(s, plan.bucket_offset[k + 1]) << what << " slot " << s;
  }
}

TEST(Decomposition, PlanLaysOutEveryLeveledBucket) {
  Rng rng(17);
  {
    const GeneratedGraph gg = make_grid({12, 12}, WeightModel::unit(), rng);
    expect_bucket_layout(
        build_separator_tree(Skeleton(gg.graph), make_grid_finder({12, 12})),
        "grid12x12");
  }
  {
    const GeneratedGraph gg = make_grid({5, 5, 5}, WeightModel::unit(), rng);
    expect_bucket_layout(build_separator_tree(Skeleton(gg.graph),
                                              make_grid_finder({5, 5, 5})),
                         "grid5^3");
  }
  {
    const GeneratedGraph gg =
        make_triangulated_grid(10, 10, WeightModel::unit(), rng);
    expect_bucket_layout(build_separator_tree(Skeleton(gg.graph),
                                              make_geometric_finder(gg.coords)),
                         "trimesh");
  }
  {
    const GeneratedGraph gg = make_random_tree(120, WeightModel::unit(), rng);
    expect_bucket_layout(
        build_separator_tree(Skeleton(gg.graph), make_tree_finder()), "tree");
  }
  {
    const GeneratedGraph gg =
        make_random_digraph(150, 450, WeightModel::unit(), rng);
    expect_bucket_layout(
        build_separator_tree(Skeleton(gg.graph), make_bfs_finder()),
        "digraph");
  }
  {
    // A single leaf: no slots, one level of empty buckets.
    const GeneratedGraph gg = make_grid({2, 2}, WeightModel::unit(), rng);
    const SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_grid_finder({2, 2}));
    expect_bucket_layout(tree, "grid2x2");
  }
}

TEST(Decomposition, AutoFinderPicksSensibly) {
  Rng rng(12);
  // Forest -> tree finder (singleton separators).
  const GeneratedGraph t = make_random_tree(120, WeightModel::unit(), rng);
  const Skeleton ts(t.graph);
  const SeparatorTree tt = build_separator_tree(ts, make_auto_finder(ts));
  expect_valid(tt, ts);
  EXPECT_EQ(tt.stats().max_separator, 1u);
  // With coordinates -> geometric finder.
  const GeneratedGraph m =
      make_triangulated_grid(10, 10, WeightModel::unit(), rng);
  const Skeleton ms(m.graph);
  const SeparatorTree mt =
      build_separator_tree(ms, make_auto_finder(ms, m.coords));
  expect_valid(mt, ms);
}

TEST(Decomposition, PartialKTreeDecomposes) {
  Rng rng(13);
  const GeneratedGraph gg =
      make_partial_ktree(300, 4, 0.6, WeightModel::unit(), rng);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_bfs_finder());
  expect_valid(tree, skel);
}


TEST(Decomposition, TreewidthFinderGivesConstantBags) {
  Rng rng(14);
  const KTreeWithDecomposition kt = make_partial_ktree_decomposed(
      400, 3, 0.6, WeightModel::uniform(1, 9), rng);
  EXPECT_LE(kt.td.width(), 3u);
  const Skeleton skel(kt.gg.graph);
  const SeparatorTree tree =
      build_separator_tree(skel, make_treewidth_finder(kt.td));
  expect_valid(tree, skel);
  // Separators are bag-sized (width + 1 = 4) wherever the finder's
  // centroid bag succeeds; the builder's BFS fallback may exceed that on
  // the few nodes where a bag fails to disconnect, but stays O(1)-ish.
  EXPECT_LE(tree.stats().max_separator, 8u);
  // And the tree is logarithmically shallow thanks to centroid bags.
  EXPECT_LE(tree.stats().height, 40u);
}

TEST(Decomposition, TreewidthFinderEndToEndDistances) {
  Rng rng(15);
  const KTreeWithDecomposition kt = make_partial_ktree_decomposed(
      200, 2, 0.5, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree = build_separator_tree(
      Skeleton(kt.gg.graph), make_treewidth_finder(kt.td));
  const auto engine = SeparatorShortestPaths<>::build(kt.gg.graph, tree);
  const auto got = engine.distances(0);
  const auto want = dijkstra(kt.gg.graph, 0);
  for (Vertex v = 0; v < kt.gg.graph.num_vertices(); ++v) {
    if (std::isinf(want.dist[v])) {
      EXPECT_TRUE(std::isinf(got.dist[v]));
    } else {
      EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8) << v;
    }
  }
}

}  // namespace
}  // namespace sepsp
