// Consolidated property sweep (TEST_P): for every combination of
// graph family x weight model x builder x leaf size, check the full
// invariant chain end to end:
//   1. the decomposition validates,
//   2. shortcut endpoints carry defined levels; values never undercut
//      true distances,
//   3. measured shortcut radius respects Theorem 3.1's bound,
//   4. scheduled, unscheduled and parallel queries all equal ground
//      truth (Dijkstra / Bellman–Ford),
//   5. the Remark-4.4 compact builder yields the same distances.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "core/builder_compact.hpp"
#include "core/engine.hpp"
#include "core/labeling.hpp"
#include "core/query.hpp"
#include "graph/generators.hpp"
#include "separator/cycle_separator.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

// `doubling` builds the engine's E+ with Algorithm 4.3 (wrapped in the
// engine) instead of the engine's own Algorithm 4.1 build.
struct Sweep {
  std::string family;
  std::string weights;
  bool doubling = false;
  std::size_t leaf_size = 4;
};

std::string sweep_name(const ::testing::TestParamInfo<Sweep>& info) {
  std::string name = info.param.family + "_" + info.param.weights + "_" +
                     (info.param.doubling ? "dbl" : "rec") + "_leaf" +
                     std::to_string(info.param.leaf_size);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class PropertySweep : public ::testing::TestWithParam<Sweep> {
 public:
  void SetUp() override {
    Rng rng(777);
    const Sweep& p = GetParam();
    WeightModel wm = WeightModel::uniform(1, 10);
    if (p.weights == "unit") wm = WeightModel::unit();
    if (p.weights == "mixed") wm = WeightModel::mixed_sign(7.0);
    negative_ = p.weights == "mixed";

    SeparatorFinder finder;
    if (p.family == "grid2d") {
      gg_ = make_grid({10, 10}, wm, rng);
      finder = make_grid_finder({10, 10});
    } else if (p.family == "grid3d") {
      gg_ = make_grid({4, 5, 4}, wm, rng);
      finder = make_grid_finder({4, 5, 4});
    } else if (p.family == "tree") {
      gg_ = make_random_tree(150, wm, rng);
      finder = make_tree_finder();
    } else if (p.family == "mesh-geo") {
      gg_ = make_triangulated_grid(8, 11, wm, rng);
      finder = make_geometric_finder(gg_.coords);
    } else if (p.family == "mesh-cycle") {
      gg_ = make_triangulated_grid(8, 11, wm, rng);
      finder = make_cycle_finder(gg_.coords);
    } else if (p.family == "unitdisk") {
      gg_ = make_unit_disk(250, 7.0, wm, rng);
      finder = make_geometric_finder(gg_.coords);
    } else if (p.family == "sparse") {
      gg_ = make_random_digraph(120, 360, wm, rng);
      finder = make_bfs_finder();
    } else if (p.family == "ktree") {
      gg_ = make_partial_ktree(140, 3, 0.5, wm, rng);
      finder = make_bfs_finder();
    } else {
      FAIL() << "unknown family " << p.family;
    }
    skel_ = Skeleton(gg_.graph);
    DecompositionOptions opts;
    opts.leaf_size = p.leaf_size;
    tree_ = build_separator_tree(skel_, finder, opts);
  }

  std::vector<double> ground_truth(Vertex source) const {
    if (negative_) {
      const BellmanFordResult bf = bellman_ford(gg_.graph, source);
      EXPECT_FALSE(bf.negative_cycle);
      return bf.dist;
    }
    return dijkstra(gg_.graph, source).dist;
  }

  std::vector<Vertex> sample_sources(std::size_t count) const {
    std::vector<Vertex> out;
    Rng pick(99);
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(
          static_cast<Vertex>(pick.next_below(gg_.graph.num_vertices())));
    }
    return out;
  }

  GeneratedGraph gg_;
  Skeleton skel_;
  SeparatorTree tree_;
  bool negative_ = false;
};

TEST_P(PropertySweep, DecompositionValidates) {
  const auto err = tree_.validate(skel_);
  EXPECT_EQ(err, std::nullopt) << (err ? *err : "");
  // Leaves may exceed leaf_size only where no separator exists (embedded
  // cliques); allow modest slack for the random families.
  EXPECT_LE(tree_.stats().max_leaf_vertices,
            std::max<std::size_t>(GetParam().leaf_size, 24));
}

TEST_P(PropertySweep, ShortcutInvariants) {
  const auto engine =
      build_augmentation_recursive<TropicalD>(gg_.graph, tree_);
  // Endpoint levels defined; sampled value domination.
  Rng pick(5);
  std::map<Vertex, std::vector<double>> truth;
  std::size_t checked = 0;
  const EplusPlan& plan = *engine.augmentation().plan;
  const PairBlock& slots = plan.slots;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const Vertex u = slots.from[s];
    const Vertex v = slots.to[s];
    ASSERT_TRUE(plan.levels.defined(u));
    ASSERT_TRUE(plan.levels.defined(v));
    if (checked < 200 && pick.next_bool(0.1)) {
      auto [it, fresh] = truth.try_emplace(u);
      if (fresh) it->second = ground_truth(u);
      EXPECT_GE(engine.shortcut_edges().value(s), it->second[v] - 1e-8);
      ++checked;
    }
  }
}

TEST_P(PropertySweep, Theorem31RadiusBound) {
  const auto engine =
      build_augmentation_recursive<TropicalD>(gg_.graph, tree_);
  for (const Vertex src : sample_sources(2)) {
    EXPECT_LE(measure_shortcut_radius(engine, src),
              engine.augmentation().diameter_bound());
  }
}

TEST_P(PropertySweep, AllQueryModesMatchGroundTruth) {
  const auto engine =
      GetParam().doubling
          ? build_augmentation_doubling<TropicalD>(gg_.graph, tree_)
          : SeparatorShortestPaths<>::build(gg_.graph, tree_);
  for (const Vertex src : sample_sources(3)) {
    const std::vector<double> want = ground_truth(src);
    const auto scheduled = engine.distances(src);
    const auto naive = engine.distances_unscheduled(src);
    ASSERT_FALSE(scheduled.negative_cycle);
    for (Vertex v = 0; v < gg_.graph.num_vertices(); ++v) {
      if (std::isinf(want[v])) {
        EXPECT_TRUE(std::isinf(scheduled.dist[v])) << v;
        EXPECT_TRUE(std::isinf(naive.dist[v])) << v;
      } else {
        EXPECT_NEAR(scheduled.dist[v], want[v], 1e-8) << v;
        EXPECT_NEAR(naive.dist[v], want[v], 1e-8) << v;
      }
    }
  }
}

TEST_P(PropertySweep, CompactBuilderMatches) {
  const auto engine = build_augmentation_compact<TropicalD>(gg_.graph, tree_);
  const Vertex src = sample_sources(1)[0];
  const std::vector<double> want = ground_truth(src);
  const auto got = engine.distances(src);
  for (Vertex v = 0; v < gg_.graph.num_vertices(); ++v) {
    if (std::isinf(want[v])) {
      EXPECT_TRUE(std::isinf(got.dist[v])) << v;
    } else {
      EXPECT_NEAR(got.dist[v], want[v], 1e-8) << v;
    }
  }
}

TEST_P(PropertySweep, HubLabelingSpotCheck) {
  const auto labels = HubLabeling<TropicalD>::build(gg_.graph, tree_);
  Rng pick(17);
  std::vector<double> truth;
  Vertex truth_source = kInvalidVertex;
  for (int trial = 0; trial < 40; ++trial) {
    const auto u =
        static_cast<Vertex>(pick.next_below(gg_.graph.num_vertices()));
    const auto v =
        static_cast<Vertex>(pick.next_below(gg_.graph.num_vertices()));
    if (u != truth_source) {
      truth = ground_truth(u);
      truth_source = u;
    }
    const double got = labels.value(u, v);
    if (std::isinf(truth[v])) {
      EXPECT_TRUE(std::isinf(got)) << u << "->" << v;
    } else {
      EXPECT_NEAR(got, truth[v], 1e-7) << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertySweep,
    ::testing::Values(
        Sweep{"grid2d", "uniform", false, 4},
        Sweep{"grid2d", "mixed", true, 4},
        Sweep{"grid2d", "unit", false, 2},
        Sweep{"grid2d", "uniform", false, 16},
        Sweep{"grid3d", "uniform", false, 4},
        Sweep{"grid3d", "mixed", false, 8},
        Sweep{"tree", "uniform", true, 4},
        Sweep{"tree", "mixed", false, 2},
        Sweep{"mesh-geo", "uniform", false, 4},
        Sweep{"mesh-geo", "mixed", false, 4},
        Sweep{"mesh-cycle", "uniform", false, 4},
        Sweep{"mesh-cycle", "unit", true, 8},
        Sweep{"unitdisk", "uniform", false, 4},
        Sweep{"unitdisk", "mixed", false, 4},
        Sweep{"sparse", "uniform", false, 4},
        Sweep{"sparse", "unit", true, 2},
        Sweep{"ktree", "uniform", false, 4},
        Sweep{"ktree", "mixed", false, 8}),
    sweep_name);

}  // namespace
}  // namespace sepsp
