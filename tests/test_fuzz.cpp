// Randomized differential testing ("fuzz"): many random instance
// configurations, each run through the full pipeline and compared with
// ground truth. Seeds are fixed, so failures reproduce exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "separator/cycle_separator.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

struct FuzzInstance {
  GeneratedGraph gg;
  SeparatorTree tree;
  bool negative = false;
};

FuzzInstance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  FuzzInstance inst;
  const int weight_kind = static_cast<int>(rng.next_below(3));
  WeightModel wm = WeightModel::uniform(0.5, 12.0);
  if (weight_kind == 1) wm = WeightModel::unit();
  if (weight_kind == 2) {
    wm = WeightModel::mixed_sign(6.0);
    inst.negative = true;
  }

  SeparatorFinder finder;
  switch (rng.next_below(6)) {
    case 0: {
      const std::size_t a = 4 + rng.next_below(10);
      const std::size_t b = 4 + rng.next_below(10);
      inst.gg = make_grid({a, b}, wm, rng);
      finder = make_grid_finder({a, b});
      break;
    }
    case 1: {
      const std::size_t side = 3 + rng.next_below(4);
      inst.gg = make_grid({side, side, side}, wm, rng);
      finder = make_grid_finder({side, side, side});
      break;
    }
    case 2: {
      inst.gg = make_random_tree(20 + rng.next_below(200), wm, rng);
      finder = make_tree_finder();
      break;
    }
    case 3: {
      const std::size_t r = 5 + rng.next_below(8);
      const std::size_t c = 5 + rng.next_below(8);
      inst.gg = make_triangulated_grid(r, c, wm, rng);
      finder = rng.next_bool() ? make_geometric_finder(inst.gg.coords)
                               : make_cycle_finder(inst.gg.coords);
      break;
    }
    case 4: {
      const std::size_t n = 40 + rng.next_below(120);
      inst.gg = make_random_digraph(n, 2 * n + rng.next_below(3 * n), wm, rng);
      finder = make_bfs_finder();
      break;
    }
    default: {
      inst.gg = make_unit_disk(80 + rng.next_below(250),
                               4.0 + rng.next_double(0, 6), wm, rng);
      finder = make_geometric_finder(inst.gg.coords);
      break;
    }
  }
  DecompositionOptions opts;
  opts.leaf_size = 2 + rng.next_below(12);
  inst.tree =
      build_separator_tree(Skeleton(inst.gg.graph), finder, opts);
  return inst;
}

// The engine's own Algorithm 4.1 build, or the engine Algorithm 4.3
// returns.
SeparatorShortestPaths<> make_engine(const FuzzInstance& inst, bool doubling) {
  if (!doubling) {
    return SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
  }
  return build_augmentation_doubling<TropicalD>(inst.gg.graph, inst.tree);
}

TEST(Fuzz, FortyRandomConfigurations) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzInstance inst = random_instance(seed);
    const auto err = inst.tree.validate(Skeleton(inst.gg.graph));
    ASSERT_EQ(err, std::nullopt) << *err;

    Rng pick(seed * 31 + 7);
    const auto engine = make_engine(inst, /*doubling=*/!pick.next_bool());
    const auto source =
        static_cast<Vertex>(pick.next_below(inst.gg.graph.num_vertices()));
    const auto got = engine.distances(source);
    ASSERT_FALSE(got.negative_cycle);
    std::vector<double> want;
    if (inst.negative) {
      const BellmanFordResult bf = bellman_ford(inst.gg.graph, source);
      ASSERT_FALSE(bf.negative_cycle);
      want = bf.dist;
    } else {
      want = dijkstra(inst.gg.graph, source).dist;
    }
    for (Vertex v = 0; v < inst.gg.graph.num_vertices(); ++v) {
      if (std::isinf(want[v])) {
        ASSERT_TRUE(std::isinf(got.dist[v])) << "v=" << v;
      } else {
        ASSERT_NEAR(got.dist[v], want[v], 1e-7) << "v=" << v;
      }
    }
  }
}

TEST(Fuzz, BatchedLanesAlwaysMatchScalarQueries) {
  // The batched kernel must be lane-for-lane bit-identical to the
  // scalar schedule on arbitrary instances — including ragged blocks
  // (the source count is rarely a multiple of the lane width) and
  // mixed-sign weights.
  for (std::uint64_t seed = 200; seed < 212; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzInstance inst = random_instance(seed);
    Rng pick(seed * 17 + 3);
    const auto engine = make_engine(inst, /*doubling=*/!pick.next_bool());
    std::vector<Vertex> sources;
    const std::size_t count = 3 + pick.next_below(15);
    for (std::size_t i = 0; i < count; ++i) {
      sources.push_back(
          static_cast<Vertex>(pick.next_below(inst.gg.graph.num_vertices())));
    }
    const auto batched = engine.distances_batch(sources);
    ASSERT_EQ(batched.size(), sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto scalar = engine.distances(sources[i]);
      ASSERT_EQ(batched[i].dist, scalar.dist) << "source " << sources[i];
      ASSERT_EQ(batched[i].negative_cycle, scalar.negative_cycle);
      ASSERT_EQ(batched[i].edges_scanned, scalar.edges_scanned);
      ASSERT_EQ(batched[i].phases, scalar.phases);
    }
  }
}

TEST(Fuzz, RandomInjectedNegativeCyclesAreAlwaysDetected) {
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t side = 5 + rng.next_below(6);
    GeneratedGraph gg =
        make_grid({side, side}, WeightModel::uniform(1, 8), rng);
    // Inject a random directed cycle with clearly negative total weight.
    GraphBuilder b(gg.graph.num_vertices());
    b.add_edges(gg.graph.edge_list());
    const std::size_t len = 2 + rng.next_below(4);
    std::vector<Vertex> cyc;
    for (std::size_t i = 0; i < len; ++i) {
      cyc.push_back(
          static_cast<Vertex>(rng.next_below(gg.graph.num_vertices())));
    }
    std::sort(cyc.begin(), cyc.end());
    cyc.erase(std::unique(cyc.begin(), cyc.end()), cyc.end());
    if (cyc.size() < 2) continue;
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const double w = i == 0 ? -20.0 * static_cast<double>(cyc.size()) : 1.0;
      b.add_edge(cyc[i], cyc[(i + 1) % cyc.size()], w);
    }
    const Digraph g = std::move(b).build();
    const SeparatorTree tree = build_separator_tree(
        Skeleton(g), make_grid_finder({side, side}));
    const auto engine = SeparatorShortestPaths<>::build(g, tree);
    // Any source that reaches the cycle must flag it; cyc[0] trivially
    // does.
    EXPECT_TRUE(engine.distances(cyc[0]).negative_cycle);
    EXPECT_TRUE(bellman_ford(g, cyc[0]).negative_cycle);
  }
}

}  // namespace
}  // namespace sepsp
