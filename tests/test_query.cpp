// Query engine correctness: the leveled schedule against Dijkstra /
// Bellman–Ford ground truth across families, weight models and sources;
// multi-source and weighted-seed runs; negative-cycle detection; work
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "baseline/johnson.hpp"
#include "approx/approx.hpp"
#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

// Parameterized sweep: (family, weight model, E+ builder). The
// doubling cases build E+ with Algorithm 4.3 and wrap it in an engine.
struct Case {
  std::string family;
  std::string weights;
  bool doubling = false;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return info.param.family + "_" + info.param.weights + "_" +
         (info.param.doubling ? "dbl" : "rec");
}

class QuerySweep : public ::testing::TestWithParam<Case> {
 public:
  struct Instance {
    GeneratedGraph gg;
    SeparatorTree tree;
  };

  Instance make_instance() const {
    Rng rng(2024);
    const Case& c = GetParam();
    WeightModel wm = WeightModel::uniform(1, 10);
    if (c.weights == "unit") wm = WeightModel::unit();
    if (c.weights == "mixed") wm = WeightModel::mixed_sign(8.0);

    Instance inst;
    if (c.family == "grid2d") {
      inst.gg = make_grid({11, 11}, wm, rng);
      inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                       make_grid_finder({11, 11}));
    } else if (c.family == "grid3d") {
      inst.gg = make_grid({5, 5, 5}, wm, rng);
      inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                       make_grid_finder({5, 5, 5}));
    } else if (c.family == "tree") {
      inst.gg = make_random_tree(180, wm, rng);
      inst.tree =
          build_separator_tree(Skeleton(inst.gg.graph), make_tree_finder());
    } else if (c.family == "mesh") {
      inst.gg = make_triangulated_grid(9, 13, wm, rng);
      inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                       make_geometric_finder(inst.gg.coords));
    } else if (c.family == "sparse") {
      inst.gg = make_random_digraph(140, 420, wm, rng);
      inst.tree =
          build_separator_tree(Skeleton(inst.gg.graph), make_bfs_finder());
    } else {
      ADD_FAILURE() << "unknown family";
    }
    return inst;
  }

  static SeparatorShortestPaths<> make_engine(const Instance& inst) {
    if (!GetParam().doubling) {
      return SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
    }
    return build_augmentation_doubling<TropicalD>(inst.gg.graph, inst.tree);
  }
};

TEST_P(QuerySweep, MatchesGroundTruthFromManySources) {
  const Instance inst = make_instance();
  const auto engine = make_engine(inst);

  const bool negative_weights = GetParam().weights == "mixed";
  Rng pick(55);
  for (int trial = 0; trial < 6; ++trial) {
    const auto source =
        static_cast<Vertex>(pick.next_below(inst.gg.graph.num_vertices()));
    const QueryResult<TropicalD> got = engine.distances(source);
    ASSERT_FALSE(got.negative_cycle);
    std::vector<double> want;
    if (negative_weights) {
      const BellmanFordResult bf = bellman_ford(inst.gg.graph, source);
      ASSERT_FALSE(bf.negative_cycle);
      want = bf.dist;
    } else {
      want = dijkstra(inst.gg.graph, source).dist;
    }
    for (Vertex v = 0; v < inst.gg.graph.num_vertices(); ++v) {
      if (std::isinf(want[v])) {
        EXPECT_TRUE(std::isinf(got.dist[v])) << "v=" << v;
      } else {
        EXPECT_NEAR(got.dist[v], want[v], 1e-8) << "v=" << v;
      }
    }
  }
}

TEST_P(QuerySweep, UnscheduledAgreesWithScheduled) {
  const Instance inst = make_instance();
  const auto engine = make_engine(inst);
  const Vertex source = 3;
  const auto scheduled = engine.distances(source);
  const auto naive = engine.distances_unscheduled(source);
  for (Vertex v = 0; v < inst.gg.graph.num_vertices(); ++v) {
    if (std::isinf(scheduled.dist[v])) {
      EXPECT_TRUE(std::isinf(naive.dist[v]));
    } else {
      EXPECT_NEAR(scheduled.dist[v], naive.dist[v], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, QuerySweep,
    ::testing::Values(
        Case{"grid2d", "uniform", false},
        Case{"grid2d", "uniform", true},
        Case{"grid2d", "mixed", false},
        Case{"grid2d", "unit", false},
        Case{"grid3d", "uniform", false},
        Case{"grid3d", "mixed", true},
        Case{"tree", "uniform", false},
        Case{"tree", "mixed", false},
        Case{"mesh", "uniform", true},
        Case{"mesh", "mixed", false},
        Case{"sparse", "uniform", false},
        Case{"sparse", "uniform", true}),
    case_name);

// --- the tree's bucket layout, shared ------------------------------------

struct LayoutCase {
  std::string name;
  GeneratedGraph gg;
  SeparatorTree tree;
};

std::vector<LayoutCase> layout_cases() {
  std::vector<LayoutCase> out;
  Rng rng(31);
  {
    LayoutCase c{"grid9x9", make_grid({9, 9}, WeightModel::uniform(1, 9), rng),
                 {}};
    c.tree =
        build_separator_tree(Skeleton(c.gg.graph), make_grid_finder({9, 9}));
    out.push_back(std::move(c));
  }
  {
    LayoutCase c{"grid4^3-mixed",
                 make_grid({4, 4, 4}, WeightModel::mixed_sign(6.0), rng), {}};
    c.tree = build_separator_tree(Skeleton(c.gg.graph),
                                  make_grid_finder({4, 4, 4}));
    out.push_back(std::move(c));
  }
  {
    // Directed: some G(t) leave slot pairs unconnected (zero() slots).
    LayoutCase c{"digraph",
                 make_random_digraph(120, 300, WeightModel::uniform(1, 9), rng),
                 {}};
    c.tree = build_separator_tree(Skeleton(c.gg.graph), make_bfs_finder());
    out.push_back(std::move(c));
  }
  return out;
}

// `q`'s E+ is the plan's slot array (one value per slot, no second
// copy), and its buckets are the plan's ranges of it.
template <Semiring S>
void expect_aliases_plan(const SeparatorShortestPaths<S>& q,
                         const EplusPlan& plan, const std::string& what) {
  const EdgeBucket<S>& eplus = q.shortcut_edges();
  ASSERT_EQ(eplus.size(), plan.num_slots()) << what;
  EXPECT_EQ(eplus.from_data(), plan.slots.from.data()) << what;
  EXPECT_EQ(eplus.to_data(), plan.slots.to.data()) << what;
  EXPECT_EQ(eplus.values().size(), plan.num_slots()) << what;
  ASSERT_TRUE(std::equal(q.bucket_offsets().begin(), q.bucket_offsets().end(),
                         plan.bucket_offset.begin(), plan.bucket_offset.end()))
      << what;
  for (std::uint32_t l = 0; l < plan.num_levels(); ++l) {
    for (const EplusPlan::Kind kind :
         {EplusPlan::kSame, EplusPlan::kDown, EplusPlan::kUp}) {
      const std::size_t k =
          EplusPlan::bucket_rank(kind, l, plan.levels.height);
      const EdgeRange r = q.bucket(kind, l);
      EXPECT_EQ(r.lo, plan.bucket_offset[k]) << what;
      EXPECT_EQ(r.hi, plan.bucket_offset[k + 1]) << what;
    }
  }
  EXPECT_EQ(q.stats().bucket_edges, plan.num_slots()) << what;
}

TEST(Query, EnginesOverOneTreeShareTheSlotArray) {
  for (const LayoutCase& c : layout_cases()) {
    const EplusPlan& plan = *c.tree.eplus_plan();
    const auto exact = SeparatorShortestPaths<>::build(c.gg.graph, c.tree);
    expect_aliases_plan(exact, plan, c.name + " exact");
    const auto dbl = build_augmentation_doubling<TropicalD>(c.gg.graph, c.tree);
    expect_aliases_plan(dbl, plan, c.name + " 4.3");
    // The live engine of an IncrementalEngine, and so the forks its
    // snapshots freeze, share them too.
    const IncrementalEngine inc = IncrementalEngine::build(c.gg.graph, c.tree);
    expect_aliases_plan(*inc.snapshot().engine, plan, c.name + " snapshot");
    bool positive = true;
    for (const Arc& a : c.gg.graph.arcs()) positive = positive && a.weight > 0;
    if (positive) {
      ApproxEngine::Options opts;
      opts.build.approx_eps = 0.1;
      const ApproxEngine approx = ApproxEngine::build(c.gg.graph, c.tree, opts);
      expect_aliases_plan(approx.engine(), plan, c.name + " approx");
    }
  }
}

// The value bytes of one bucket, run by run.
template <Semiring S>
std::vector<typename S::Value> bucket_values(const EdgeBucket<S>& b) {
  std::vector<typename S::Value> out;
  b.for_each_values_run([&](std::size_t, std::size_t len,
                            const typename S::Value* v) {
    out.insert(out.end(), v, v + len);
  });
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Query, FreshExactAndIncrementalBucketsAreByteIdentical) {
  bool saw_zero_slot = false;
  for (const LayoutCase& c : layout_cases()) {
    const EplusPlan& plan = *c.tree.eplus_plan();
    const auto exact = SeparatorShortestPaths<>::build(c.gg.graph, c.tree);
    const IncrementalEngine inc = IncrementalEngine::build(c.gg.graph, c.tree);
    const SeparatorShortestPaths<>::Snapshot snap = inc.snapshot().engine;
    ASSERT_EQ(snap->shortcut_edges().size(), plan.num_slots());
    const auto w = bucket_values(exact.shortcut_edges());
    const auto g = bucket_values(snap->shortcut_edges());
    EXPECT_TRUE(same_bits(g, w)) << c.name;
    for (const double v : w) saw_zero_slot = saw_zero_slot || std::isinf(v);
    EXPECT_TRUE(same_bits(bucket_values(snap->base_edges()),
                          bucket_values(exact.base_edges())))
        << c.name;
  }
  // The directed case keeps zero() slots, which the exact build used to
  // drop: the buckets agree there too.
  EXPECT_TRUE(saw_zero_slot);
}

TEST(Query, UnreachableVerticesStayInfinite) {
  // A one-way path: nothing before the source is reachable.
  Rng rng(3);
  const GeneratedGraph gg = make_path(40, WeightModel::uniform(1, 5), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_tree_finder());
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto r = engine.distances(20);
  for (Vertex v = 0; v < 20; ++v) EXPECT_TRUE(std::isinf(r.dist[v]));
  for (Vertex v = 20; v < 40; ++v) EXPECT_FALSE(std::isinf(r.dist[v]));
}

TEST(Query, NegativeCycleIsDetected) {
  // A grid plus an injected strongly negative 3-cycle.
  Rng rng(4);
  GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 5), rng);
  GraphBuilder b(gg.graph.num_vertices());
  b.add_edges(gg.graph.edge_list());
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 6, 1.0);
  b.add_edge(6, 0, -10.0);
  const Digraph g = std::move(b).build(/*dedup_min=*/true);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({6, 6}));
  const auto engine = SeparatorShortestPaths<>::build(g, tree);
  EXPECT_TRUE(engine.distances(0).negative_cycle);
  // Reference agrees.
  EXPECT_TRUE(bellman_ford(g, 0).negative_cycle);
}

TEST(Query, NegativeCycleUnreachableFromSourceIsNotFlagged) {
  // Negative cycle in a separate component: per the paper's remark (i),
  // only cycles reachable from the source make its distances undefined.
  GraphBuilder b(6);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 0, 1.0);
  b.add_edge(2, 3, 1.0);  // component {2,3,4}: negative triangle
  b.add_edge(3, 4, 1.0);
  b.add_edge(4, 2, -5.0);
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_bfs_finder());
  const auto engine = SeparatorShortestPaths<>::build(g, tree);
  EXPECT_FALSE(engine.distances(0).negative_cycle);
  EXPECT_TRUE(engine.distances(2).negative_cycle);
}

TEST(Query, MultiSourceEqualsMinOverSources) {
  Rng rng(5);
  const GeneratedGraph gg = make_grid({8, 8}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({8, 8}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const std::vector<Vertex> sources{0, 27, 63};
  std::vector<std::pair<Vertex, double>> seeds;
  for (const Vertex s : sources) seeds.emplace_back(s, TropicalD::one());
  const auto multi = engine.distances_seeded(seeds);
  std::vector<QueryResult<TropicalD>> singles;
  for (const Vertex s : sources) singles.push_back(engine.distances(s));
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
    double want = TropicalD::zero();
    for (const auto& r : singles) want = std::min(want, r.dist[v]);
    EXPECT_NEAR(multi.dist[v], want, 1e-9) << v;
  }
}

TEST(Query, WeightedSeedsActAsVirtualSource) {
  Rng rng(6);
  const GeneratedGraph gg = make_grid({7, 7}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({7, 7}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const std::vector<std::pair<Vertex, double>> seeds{{0, 5.0}, {48, 1.0}};
  const auto got = engine.distances_seeded(seeds);
  const auto d0 = engine.distances(0);
  const auto d48 = engine.distances(48);
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
    const double want = std::min(5.0 + d0.dist[v], 1.0 + d48.dist[v]);
    EXPECT_NEAR(got.dist[v], want, 1e-9) << v;
  }
}

TEST(Query, ScheduledScansFewerEdgesThanNaive) {
  Rng rng(7);
  const GeneratedGraph gg =
      make_grid({16, 16}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({16, 16}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto sched = engine.distances(0);
  const auto naive = engine.distances_unscheduled(0);
  // The whole point of Section 3.2: O(1) passes per bucket vs diam passes.
  EXPECT_LT(sched.edges_scanned, naive.edges_scanned);
}

TEST(Query, BatchMatchesSingles) {
  Rng rng(8);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const std::vector<Vertex> sources{0, 5, 17, 35};
  const auto batch = engine.distances_batch(sources);
  ASSERT_EQ(batch.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto single = engine.distances(sources[i]);
    EXPECT_EQ(batch[i].dist, single.dist);
  }
}

TEST(Query, JohnsonAgreesOnNegativeWeights) {
  Rng rng(10);
  const GeneratedGraph gg = make_grid({9, 9}, WeightModel::mixed_sign(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto johnson = Johnson::build(gg.graph);
  ASSERT_TRUE(johnson.has_value());
  for (const Vertex source : {Vertex{0}, Vertex{40}}) {
    const auto a = engine.distances(source);
    const auto b = johnson->distances(source);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_NEAR(a.dist[v], b.dist[v], 1e-8);
    }
  }
}

}  // namespace
}  // namespace sepsp
