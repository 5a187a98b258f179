// Tests for the level labeling of Section 3.1, computed with the tree's
// slot plan (separator/eplus_plan.hpp).
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "separator/decomposition.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

struct LevelsFixture {
  GeneratedGraph gg;
  Skeleton skel;
  SeparatorTree tree;
  LevelAssignment levels;
};

LevelsFixture make_setup(std::uint64_t seed = 1) {
  Rng rng(seed);
  LevelsFixture s{make_grid({9, 9}, WeightModel::unit(), rng), {}, {}, {}};
  s.skel = Skeleton(s.gg.graph);
  s.tree = build_separator_tree(s.skel, make_grid_finder({9, 9}));
  s.levels = s.tree.eplus_plan()->levels;
  return s;
}

TEST(Levels, EveryVertexLiesInALeaf) {
  // The invariant the plan checks while it computes the levels ("vertex
  // missing from every leaf"): only separator membership copies a vertex
  // into both children, and nothing drops one.
  const LevelsFixture s = make_setup();
  std::vector<int> in_leaf(s.gg.graph.num_vertices(), 0);
  for (const std::size_t id : s.tree.leaf_ids()) {
    for (const Vertex v : s.tree.node(id).vertices) in_leaf[v] = 1;
  }
  ASSERT_EQ(s.levels.level.size(), s.gg.graph.num_vertices());
  for (Vertex v = 0; v < s.gg.graph.num_vertices(); ++v) {
    EXPECT_EQ(in_leaf[v], 1) << v;
  }
}

TEST(Levels, DefinedLevelsAreMinOverSeparators) {
  const LevelsFixture s = make_setup();
  const std::size_t n = s.gg.graph.num_vertices();
  std::vector<std::uint32_t> expected(n, LevelAssignment::kUndefined);
  for (std::size_t id = 0; id < s.tree.num_nodes(); ++id) {
    const DecompNode& t = s.tree.node(id);
    for (const Vertex v : t.separator) {
      expected[v] = std::min(expected[v], t.level);
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(s.levels.level[v], expected[v]) << v;
  }
}

TEST(Levels, SomeSeparatorAttainsEachDefinedLevel) {
  const LevelsFixture s = make_setup();
  std::vector<int> attained(s.gg.graph.num_vertices(), 0);
  for (std::size_t id = 0; id < s.tree.num_nodes(); ++id) {
    const DecompNode& t = s.tree.node(id);
    for (const Vertex v : t.separator) {
      if (s.levels.level[v] == t.level) attained[v] = 1;
    }
  }
  for (Vertex v = 0; v < s.gg.graph.num_vertices(); ++v) {
    EXPECT_EQ(attained[v], s.levels.defined(v) ? 1 : 0) << v;
  }
}

TEST(Levels, UndefinedVerticesAppearInExactlyOneLeaf) {
  const LevelsFixture s = make_setup();
  std::vector<int> leaf_count(s.gg.graph.num_vertices(), 0);
  for (const std::size_t id : s.tree.leaf_ids()) {
    for (const Vertex v : s.tree.node(id).vertices) {
      if (!s.levels.defined(v)) ++leaf_count[v];
    }
  }
  for (Vertex v = 0; v < s.gg.graph.num_vertices(); ++v) {
    if (!s.levels.defined(v)) {
      EXPECT_EQ(leaf_count[v], 1) << v;
    }
  }
}

TEST(Levels, BoundaryVerticesHaveStrictlySmallerLevelThanNode) {
  // Paper: v in B(t) implies level(v) < level(t); v in S(t) implies
  // level(v) <= level(t).
  const LevelsFixture s = make_setup();
  for (std::size_t id = 0; id < s.tree.num_nodes(); ++id) {
    const DecompNode& t = s.tree.node(id);
    for (const Vertex v : t.boundary) {
      ASSERT_TRUE(s.levels.defined(v));
      EXPECT_LT(s.levels.level[v], t.level);
    }
    for (const Vertex v : t.separator) {
      ASSERT_TRUE(s.levels.defined(v));
      EXPECT_LE(s.levels.level[v], t.level);
    }
  }
}

TEST(Levels, HeightMatchesTree) {
  const LevelsFixture s = make_setup();
  EXPECT_EQ(s.levels.height, s.tree.height());
  for (Vertex v = 0; v < s.gg.graph.num_vertices(); ++v) {
    if (s.levels.defined(v)) {
      EXPECT_LE(s.levels.level[v], s.levels.height);
    }
  }
}

TEST(Levels, RootSeparatorIsLevelZero) {
  const LevelsFixture s = make_setup();
  for (const Vertex v : s.tree.root().separator) {
    EXPECT_EQ(s.levels.level[v], 0u);
  }
}

}  // namespace
}  // namespace sepsp
