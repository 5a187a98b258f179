// Properties of the E+ augmentation (Section 3 / Theorem 3.1):
//   (i)  shortcut weights never undercut true distances, and distances
//        in G+ equal distances in G,
//   (ii) the min-weight diameter of G+ respects 4 d_G + 2 ell + 1,
//   plus: both builders agree, shortcut endpoints have defined levels,
//   and shortcut weights are exactly dist_{G(t)} on the node subgraphs.
#include <gtest/gtest.h>

#include <map>

#include "baseline/dijkstra.hpp"
#include "core/builder_doubling.hpp"
#include "core/builder_recursive.hpp"
#include "core/engine.hpp"
#include "core/query.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

struct Family {
  std::string name;
  GeneratedGraph gg;
  SeparatorTree tree;
};

std::vector<Family> families() {
  std::vector<Family> out;
  Rng rng(99);
  {
    Family f{"grid8x8",
             make_grid({8, 8}, WeightModel::uniform(1, 10), rng), {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                  make_grid_finder({8, 8}));
    out.push_back(std::move(f));
  }
  {
    Family f{"grid4x4x4",
             make_grid({4, 4, 4}, WeightModel::uniform(1, 5), rng), {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                  make_grid_finder({4, 4, 4}));
    out.push_back(std::move(f));
  }
  {
    Family f{"tree200", make_random_tree(200, WeightModel::uniform(1, 9), rng),
             {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph), make_tree_finder());
    out.push_back(std::move(f));
  }
  {
    Family f{"trimesh", make_triangulated_grid(8, 8,
                                               WeightModel::uniform(1, 4), rng),
             {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                  make_geometric_finder(f.gg.coords));
    out.push_back(std::move(f));
  }
  {
    Family f{"sparse-random",
             make_random_digraph(150, 450, WeightModel::uniform(1, 9), rng),
             {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph), make_bfs_finder());
    out.push_back(std::move(f));
  }
  return out;
}

TEST(Augmentation, ShortcutsNeverUndercutTrueDistances) {
  for (const Family& f : families()) {
    const auto aug = build_augmentation_recursive<TropicalD>(f.gg.graph, f.tree);
    // Group shortcuts by source to reuse one Dijkstra per source.
    std::map<Vertex, std::vector<const Shortcut<TropicalD>*>> by_source;
    for (const auto& e : aug.shortcuts) by_source[e.from].push_back(&e);
    for (const auto& [source, edges] : by_source) {
      const DijkstraResult dj = dijkstra(f.gg.graph, source);
      for (const auto* e : edges) {
        EXPECT_GE(e->value, dj.dist[e->to] - 1e-9)
            << f.name << " shortcut " << e->from << "->" << e->to;
      }
    }
  }
}

TEST(Augmentation, ShortcutEndpointsHaveDefinedLevels) {
  for (const Family& f : families()) {
    const auto aug = build_augmentation_recursive<TropicalD>(f.gg.graph, f.tree);
    for (const auto& e : aug.shortcuts) {
      EXPECT_TRUE(aug.levels.defined(e.from)) << f.name;
      EXPECT_TRUE(aug.levels.defined(e.to)) << f.name;
      EXPECT_NE(e.from, e.to) << f.name;
      EXPECT_TRUE(TropicalD::improves(TropicalD::zero(), e.value)) << f.name;
    }
  }
}

TEST(Augmentation, Theorem31DiameterBound) {
  Rng pick(5);
  for (const Family& f : families()) {
    const auto aug = build_augmentation_recursive<TropicalD>(f.gg.graph, f.tree);
    const std::size_t bound = aug.diameter_bound();
    // Sample a few sources; the radius from each must respect the bound.
    for (int trial = 0; trial < 3; ++trial) {
      const auto source =
          static_cast<Vertex>(pick.next_below(f.gg.graph.num_vertices()));
      const std::size_t radius =
          measure_shortcut_radius(f.gg.graph, aug, source);
      EXPECT_LE(radius, bound) << f.name << " source " << source;
    }
  }
}

TEST(Augmentation, AugmentationShrinksRadiusDramatically) {
  // On a long path graph the raw min-weight diameter is n-1, while G+
  // must stay logarithmic: the sharpest illustration of Theorem 3.1.
  Rng rng(6);
  const GeneratedGraph gg =
      make_path(257, WeightModel::uniform(1, 3), rng, /*bidirectional=*/true);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_tree_finder());
  const auto aug = build_augmentation_recursive<TropicalD>(gg.graph, tree);
  const std::size_t radius = measure_shortcut_radius(gg.graph, aug, 0);
  EXPECT_LE(radius, aug.diameter_bound());
  EXPECT_LT(radius, 64u);   // log-ish, nowhere near 256
  EXPECT_GE(aug.height, 6u);
}

TEST(Augmentation, BothBuildersProduceIdenticalDistances) {
  for (const Family& f : families()) {
    const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
    const Augmentation<TropicalD>& rec = engine.augmentation();
    const auto dbl = build_augmentation_doubling<TropicalD>(f.gg.graph, f.tree);
    // The shortcut edge sets coincide (same Et definition); values match.
    ASSERT_EQ(rec.shortcuts.size(), dbl.shortcuts.size()) << f.name;
    for (std::size_t i = 0; i < rec.shortcuts.size(); ++i) {
      EXPECT_EQ(rec.shortcuts[i].from, dbl.shortcuts[i].from) << f.name;
      EXPECT_EQ(rec.shortcuts[i].to, dbl.shortcuts[i].to) << f.name;
      EXPECT_NEAR(rec.shortcuts[i].value, dbl.shortcuts[i].value, 1e-9)
          << f.name << " edge " << rec.shortcuts[i].from << "->"
          << rec.shortcuts[i].to;
    }
  }
}

TEST(Augmentation, ClosureKindsAgree) {
  for (const Family& f : families()) {
    const auto sq = build_augmentation_recursive<TropicalD>(
        f.gg.graph, f.tree, ClosureKind::kSquaring);
    const auto fw = build_augmentation_recursive<TropicalD>(
        f.gg.graph, f.tree, ClosureKind::kFloydWarshall);
    ASSERT_EQ(sq.shortcuts.size(), fw.shortcuts.size()) << f.name;
    for (std::size_t i = 0; i < sq.shortcuts.size(); ++i) {
      EXPECT_NEAR(sq.shortcuts[i].value, fw.shortcuts[i].value, 1e-9)
          << f.name;
    }
  }
}

TEST(Augmentation, DoublingWithoutEarlyExitMatches) {
  Rng rng(7);
  const GeneratedGraph gg = make_grid({7, 7}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({7, 7}));
  DoublingOptions full;
  full.early_exit = false;
  const auto a = build_augmentation_doubling<TropicalD>(gg.graph, tree);
  const auto b = build_augmentation_doubling<TropicalD>(gg.graph, tree, full);
  ASSERT_EQ(a.shortcuts.size(), b.shortcuts.size());
  for (std::size_t i = 0; i < a.shortcuts.size(); ++i) {
    EXPECT_NEAR(a.shortcuts[i].value, b.shortcuts[i].value, 1e-12);
  }
}

TEST(Augmentation, ExactIntegerShortcutsEqualSubgraphDistances) {
  // With integer weights, check shortcut values are *exactly* the
  // distances within the owning node subgraph G(t) — Proposition 4.2.
  Rng rng(8);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  // Round weights to integers via TropicalI and compare with per-node FW.
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  const auto aug = build_augmentation_recursive<TropicalI>(gg.graph, tree);
  // Reference: global dedup of per-node brute-force subgraph distances.
  std::map<std::pair<Vertex, Vertex>, long long> best;
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    const Digraph::Induced sub = gg.graph.induced(t.vertices);
    Matrix<TropicalI> m(t.vertices.size());
    for (std::size_t i = 0; i < t.vertices.size(); ++i) {
      m.at(i, i) = 0;
      for (const Arc& a : sub.graph.out(static_cast<Vertex>(i))) {
        m.merge(i, a.to, TropicalI::from_weight(a.weight));
      }
    }
    floyd_warshall(m);
    auto emit = [&](const std::vector<Vertex>& group) {
      for (const Vertex u : group) {
        for (const Vertex v : group) {
          if (u == v) continue;
          const long long d =
              m.at(sub.local_of[u], sub.local_of[v]);
          if (d >= TropicalI::kInf) continue;
          const auto key = std::make_pair(u, v);
          const auto it = best.find(key);
          if (it == best.end() || d < it->second) best[key] = d;
        }
      }
    };
    emit(t.separator);
    emit(t.boundary);
  }
  ASSERT_EQ(aug.shortcuts.size(), best.size());
  for (const auto& e : aug.shortcuts) {
    const auto it = best.find({e.from, e.to});
    ASSERT_NE(it, best.end());
    EXPECT_EQ(e.value, it->second) << e.from << "->" << e.to;
  }
}

}  // namespace
}  // namespace sepsp
