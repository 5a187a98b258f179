// Properties of the E+ augmentation (Section 3 / Theorem 3.1):
//   (i)  shortcut weights never undercut true distances, and distances
//        in G+ equal distances in G,
//   (ii) the min-weight diameter of G+ respects 4 d_G + 2 ell + 1,
//   plus: both builders agree, shortcut endpoints have defined levels,
//   shortcut weights are exactly dist_{G(t)} on the node subgraphs, and
//   the negative-cycle certificate (Augmentation::cycle_free) agrees
//   with a Bellman–Ford oracle.
#include <gtest/gtest.h>

#include <map>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "baseline/negative_cycle.hpp"
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

// --- the negative-cycle certificate -----------------------------------

// `g` with every arc reweighted by weight_of(edge) and the extra arcs
// appended (parallel arcs keep the minimum). The skeleton is unchanged
// whenever the extra arcs join skeleton neighbours (or are self-loops).
template <typename WeightOf>
Digraph reweight(const Digraph& g, const WeightOf& weight_of,
                 const std::vector<EdgeTriple>& extra = {}) {
  GraphBuilder b(g.num_vertices());
  for (EdgeTriple e : g.edge_list()) {
    e.weight = weight_of(e);
    b.add_edge(e.from, e.to, e.weight);
  }
  b.add_edges(extra);
  return std::move(b).build();
}

// Checks the certificate of the build and of the engine over g against
// the oracle; returns the oracle's verdict.
bool expect_certificate_matches_oracle(const Digraph& g,
                                       const SeparatorTree& tree,
                                       const std::string& what) {
  const bool oracle = !find_negative_cycle(g).has_value();
  EXPECT_EQ(build_augmentation_recursive<TropicalD>(
                g, tree, ClosureKind::kFloydWarshall)
                .cycle_free,
            oracle)
      << what;
  if (oracle) {
    // TropicalI certifies too. Only on cycle-free input: around a
    // negative cycle Floyd–Warshall cells can double per pivot, past
    // the range of long long.
    EXPECT_TRUE(build_augmentation_recursive<TropicalI>(
                    g, tree, ClosureKind::kFloydWarshall)
                    .cycle_free)
        << what;
  }
  const auto engine = SeparatorShortestPaths<>::build(g, tree);
  EXPECT_EQ(engine.cycle_certified(), oracle) << what;
  EXPECT_EQ(engine.stats().cycle_certified, oracle) << what;
  // Certified or not, replies keep the oracle's per-source verdict, and
  // a certified engine's distances are exact.
  const Vertex source = static_cast<Vertex>(g.num_vertices() / 2);
  const auto got = engine.distances(source);
  const BellmanFordResult want = bellman_ford(g, source);
  EXPECT_EQ(got.negative_cycle, want.negative_cycle) << what;
  if (oracle) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(got.dist[v], want.dist[v]) << what << " v=" << v;
    }
  }
  return oracle;
}

TEST(CycleCertificate, MatchesOracleOnRandomMixedSignInstances) {
  // Integer weights keep every sum exact in double, so the certificate
  // is held to the oracle exactly. Half the instances are potential-
  // shifted (never a negative cycle, zero-weight cycles common); half
  // draw raw mixed-sign weights; every fifth plants a negative 2-cycle.
  Rng rng(2023);
  std::size_t certified = 0;
  std::size_t cyclic = 0;
  for (int trial = 0; trial < 240; ++trial) {
    GeneratedGraph gg;
    SeparatorFinder finder;
    switch (trial % 3) {
      case 0: {
        const std::size_t side = 3 + rng.next_below(4);
        gg = make_grid({side, side}, WeightModel::unit(), rng);
        finder = make_grid_finder({side, side});
        break;
      }
      case 1:
        gg = make_grid({3, 3, 3}, WeightModel::unit(), rng);
        finder = make_grid_finder({3, 3, 3});
        break;
      default: {
        const std::size_t n = 20 + rng.next_below(30);
        gg = make_random_digraph(n, 3 * n, WeightModel::unit(), rng);
        finder = make_bfs_finder();
        break;
      }
    }
    const Digraph& base = gg.graph;
    std::vector<double> h(base.num_vertices(), 0.0);
    const bool shifted = trial % 2 == 0;
    if (shifted) {
      for (double& x : h) x = static_cast<double>(rng.next_int(-6, 6));
    }
    const std::int64_t lo = -1 - static_cast<std::int64_t>(trial / 2 % 4);
    std::vector<EdgeTriple> extra;
    if (trial % 5 == 1 && base.num_edges() > 0) {
      const EdgeTriple e = base.edge_list()[rng.next_below(base.num_edges())];
      extra.push_back({e.to, e.from, -20.0});  // w(e) <= 16: cycle <= -4
    }
    const Digraph g = reweight(
        base,
        [&](const EdgeTriple& e) {
          return shifted ? static_cast<double>(rng.next_int(0, 4)) +
                               h[e.from] - h[e.to]
                         : static_cast<double>(rng.next_int(lo, 9));
        },
        extra);
    const SeparatorTree tree = build_separator_tree(Skeleton(g), finder);
    const bool oracle = expect_certificate_matches_oracle(
        g, tree, "trial " + std::to_string(trial));
    ++(oracle ? certified : cyclic);
  }
  // Both verdicts are well represented.
  EXPECT_GE(certified, 80u);
  EXPECT_GE(cyclic, 60u);
}

TEST(CycleCertificate, NegativeSelfLoop) {
  Rng rng(11);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::unit(), rng);
  const Digraph g = reweight(
      gg.graph, [](const EdgeTriple& e) { return e.weight; }, {{5, 5, -1.0}});
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({4, 4}));
  EXPECT_FALSE(expect_certificate_matches_oracle(g, tree, "self-loop"));
}

TEST(CycleCertificate, TwoCycleThroughTheRootSeparator) {
  // s in S(root), v beside it: s -> v -> s weighs w(s, v) + w(v, s).
  Rng rng(12);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::unit(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const Vertex s = tree.root().separator.front();
  Vertex v = kInvalidVertex;
  for (const Arc& a : gg.graph.out(s)) {
    if (!std::binary_search(tree.root().separator.begin(),
                            tree.root().separator.end(), a.to)) {
      v = a.to;
    }
  }
  ASSERT_NE(v, kInvalidVertex);
  auto two_cycle = [&](double there, double back) {
    return reweight(gg.graph, [&](const EdgeTriple& e) {
      if (e.from == s && e.to == v) return there;
      if (e.from == v && e.to == s) return back;
      return e.weight;
    });
  };
  EXPECT_FALSE(
      expect_certificate_matches_oracle(two_cycle(1.0, -2.0), tree, "-1"));
  // Weight exactly zero (every other s-v walk weighs >= 0 too): no
  // negative cycle, and the strict check must certify it.
  EXPECT_TRUE(
      expect_certificate_matches_oracle(two_cycle(3.0, -3.0), tree, "zero"));
}

TEST(CycleCertificate, RingAroundTheSeparatorIsCaughtByTheRootClosure) {
  // Arcs running one way around the square ring 1 <= x, y <= 5 of a 7x7
  // grid weigh -1, all others +1: only walks around most of the ring are
  // negative, so no child holds a negative cycle and the root's closed
  // H_S must report it.
  constexpr std::size_t kSide = 7;
  Rng rng(13);
  const GeneratedGraph gg =
      make_grid({kSide, kSide}, WeightModel::unit(), rng);
  std::vector<Vertex> ring;
  auto at = [](std::size_t x, std::size_t y) {
    return static_cast<Vertex>(y * kSide + x);
  };
  for (std::size_t x = 1; x < 5; ++x) ring.push_back(at(x, 1));
  for (std::size_t y = 1; y < 5; ++y) ring.push_back(at(5, y));
  for (std::size_t x = 5; x > 1; --x) ring.push_back(at(x, 5));
  for (std::size_t y = 5; y > 1; --y) ring.push_back(at(1, y));
  const Digraph g = reweight(gg.graph, [&](const EdgeTriple& e) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      if (e.from == ring[i] && e.to == ring[(i + 1) % ring.size()]) {
        return -1.0;
      }
    }
    return 1.0;
  });
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({kSide, kSide}));
  EXPECT_FALSE(expect_certificate_matches_oracle(g, tree, "ring"));
  const auto run = detail::run_algorithm41<TropicalD>(
      g, tree, ClosureKind::kFloydWarshall, /*keep_bnd=*/false);
  EXPECT_EQ(run.negative_diagonal[0], 1);  // node 0 is the root
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).is_leaf()) {
      EXPECT_EQ(run.negative_diagonal[id], 0) << "leaf " << id;
    }
  }
}

TEST(CycleCertificate, OnlyFloydWarshallBuildsCertify) {
  // The squaring closure and Algorithm 4.3 carry no certificate, so
  // engines wrapping them keep the verification pass.
  Rng rng(14);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  EXPECT_TRUE(build_augmentation_recursive<TropicalD>(
                  gg.graph, tree, ClosureKind::kFloydWarshall)
                  .cycle_free);
  EXPECT_FALSE(build_augmentation_recursive<TropicalD>(
                   gg.graph, tree, ClosureKind::kSquaring)
                   .cycle_free);
  const auto dbl = build_augmentation_doubling<TropicalD>(gg.graph, tree);
  EXPECT_FALSE(dbl.cycle_free);
  const auto engine = SeparatorShortestPaths<>::from_augmentation(gg.graph, dbl);
  EXPECT_FALSE(engine.cycle_certified());
  EXPECT_TRUE(engine.query_engine().detects_negative_cycles());
  EXPECT_FALSE(
      SeparatorShortestPaths<>::build(gg.graph, tree)
          .query_engine()
          .detects_negative_cycles());
}

}  // namespace
}  // namespace sepsp
