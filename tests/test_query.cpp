// Query engine correctness: the leveled schedule against Dijkstra /
// Bellman–Ford ground truth across families, weight models and sources;
// multi-source and weighted-seed runs; negative-cycle detection; work
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
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

#include "edge_runs.hpp"

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
  EXPECT_EQ(eplus.tail_data(), plan.slots.tail.data()) << what;
  EXPECT_EQ(eplus.start_data(), plan.slots.start.data()) << what;
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
      // Whole runs: the bucket's first run starts at its first slot.
      EXPECT_EQ(r.run_lo, plan.bucket_run[k]) << what;
      EXPECT_EQ(r.run_hi, plan.bucket_run[k + 1]) << what;
      EXPECT_EQ(eplus.start_data()[r.run_lo], r.lo) << what;
      EXPECT_EQ(eplus.start_data()[r.run_hi], r.hi) << what;
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

// The value bytes of one bucket, chunk by chunk.
template <Semiring S>
std::vector<typename S::Value> bucket_values(const EdgeBucket<S>& b) {
  std::vector<typename S::Value> out;
  const std::uint32_t* start = b.start_data();
  b.for_each_chunk(b.all(), [&](std::size_t lo, std::size_t hi,
                                const typename S::Value* v) {
    out.insert(out.end(), v, v + (start[hi] - start[lo]));
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

// --- sources and targets with no level: the end arcs ------------------
//
// The walk's leading passes scan only the end arcs whose tail has no
// level, its trailing passes those whose head has none, and its climb
// skips runs it has not reached. The instances below are the random
// tree (1,400-odd of its 2,000 vertices have no level) and the 33 x 33
// mesh (a handful of leaf-interior vertices), sourced at their
// unleveled vertices.

struct EndInstance {
  std::string name;
  GeneratedGraph gg;
  SeparatorTree tree;
};

/// Integer-valued weights: unit, uniform(1, 10) rounded, and mixed
/// signs as w = k + h(u) - h(v) with integer k >= 0 and potentials h,
/// so no cycle is negative. Real-valued: uniform and mixed_sign as
/// drawn.
Digraph integer_valued(const Digraph& g, const std::string& weights,
                       Rng& rng) {
  std::vector<double> h(g.num_vertices(), 0.0);
  if (weights == "mixed") {
    for (double& x : h) x = static_cast<double>(rng.next_below(21));
  }
  GraphBuilder b(g.num_vertices());
  for (const EdgeTriple& e : g.edge_list()) {
    const double k = weights == "unit" ? 1.0 : std::round(std::abs(e.weight));
    b.add_edge(e.from, e.to, k + h[e.from] - h[e.to]);
  }
  return std::move(b).build(/*dedup_min=*/false);
}

EndInstance end_instance(bool mesh, const WeightModel& wm) {
  Rng rng(mesh ? 33 : 2000);
  EndInstance inst;
  if (mesh) {
    inst.name = "mesh33";
    inst.gg = make_triangulated_grid(33, 33, wm, rng);
    inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                     make_geometric_finder(inst.gg.coords));
  } else {
    inst.name = "tree2000";
    inst.gg = make_random_tree(2000, wm, rng);
    inst.tree =
        build_separator_tree(Skeleton(inst.gg.graph), make_tree_finder());
  }
  return inst;
}

/// Up to `limit` unleveled vertices, spread over the id range, then two
/// leveled ones (a leveled source pays one lead pass and moves on).
std::vector<Vertex> end_sources(const SeparatorTree& tree, std::size_t limit) {
  const LevelAssignment& levels = tree.eplus_plan()->levels;
  std::vector<Vertex> unleveled, leveled;
  for (Vertex v = 0; v < levels.level.size(); ++v) {
    (levels.defined(v) ? leveled : unleveled).push_back(v);
  }
  std::vector<Vertex> out;
  const std::size_t step = std::max<std::size_t>(1, unleveled.size() / limit);
  for (std::size_t i = 0; i < unleveled.size() && out.size() < limit;
       i += step) {
    out.push_back(unleveled[i]);
  }
  out.push_back(leveled.front());
  out.push_back(leveled.back());
  return out;
}

TEST(EndArcs, SplitHoldsEveryArcWithAnUnleveledEndOnce) {
  for (const bool mesh : {false, true}) {
    const EndInstance inst = end_instance(mesh, WeightModel::uniform(1, 10));
    const auto engine = SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
    const LevelAssignment& levels = inst.tree.eplus_plan()->levels;
    const EdgeBucket<TropicalD>& base = engine.base_edges();
    const EdgeBucket<TropicalD>& ends = engine.end_edges();
    const EdgeRange lead = engine.lead_edges();
    const EdgeRange trail = engine.trail_edges();
    ASSERT_EQ(lead.lo, 0u) << inst.name;
    ASSERT_EQ(trail.hi, ends.size()) << inst.name;
    ASSERT_LE(trail.lo, lead.hi) << inst.name;
    ASSERT_GT(ends.size(), 0u) << inst.name;

    // Each base pair is one arc; map it back to its CSR index.
    const std::vector<Vertex> base_from = slot_tails(base);
    const std::vector<Vertex> ends_from = slot_tails(ends);
    std::map<std::pair<Vertex, Vertex>, std::size_t> arc_of;
    for (std::size_t i = 0; i < base.size(); ++i) {
      arc_of[{base_from[i], base.to_data()[i]}] = i;
    }
    std::vector<int> seen(base.size(), 0);
    std::size_t last_arc = 0;
    for (std::size_t i = 0; i < ends.size(); ++i) {
      const Vertex u = ends_from[i];
      const Vertex v = ends.to_data()[i];
      const auto it = arc_of.find({u, v});
      ASSERT_NE(it, arc_of.end()) << inst.name << " end arc " << i;
      const std::size_t arc = it->second;
      ++seen[arc];
      const bool tail = !levels.defined(u);
      const bool head = !levels.defined(v);
      // [0, a) tail only, [a, b) both, [b, size) head only.
      EXPECT_EQ(tail, i < lead.hi) << inst.name << " end arc " << i;
      EXPECT_EQ(head, i >= trail.lo) << inst.name << " end arc " << i;
      // Each class in CSR order.
      const bool class_start = i == 0 || i == trail.lo || i == lead.hi;
      if (!class_start) {
        EXPECT_LT(last_arc, arc) << inst.name << " " << i;
      }
      last_arc = arc;
      const double a = ends.value(i);
      const double b = base.value(arc);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << inst.name << " " << i;
    }
    for (std::size_t arc = 0; arc < base.size(); ++arc) {
      const bool end = !levels.defined(base_from[arc]) ||
                       !levels.defined(base.to_data()[arc]);
      EXPECT_EQ(seen[arc], end ? 1 : 0) << inst.name << " arc " << arc;
    }
  }
}

/// distances_batch at every width in {1, 8, 16, 32} memcmp-equal to the
/// full E u E+ oracle (distances_unscheduled) of the same engine, with
/// the negative_cycle flag and each lane's counters equal to its
/// width-1 run.
template <Semiring S>
void expect_matches_unscheduled(const Digraph& g, const SeparatorTree& tree,
                                const std::vector<Vertex>& sources,
                                const std::string& what) {
  using Value = typename S::Value;
  const auto engine = SeparatorShortestPaths<S>::build(g, tree);
  std::vector<QueryResult<S>> want;
  for (const Vertex s : sources) want.push_back(engine.distances_unscheduled(s));
  const auto one = engine.distances_batch(sources, {.lanes = 1});
  for (const std::size_t lanes : {1u, 8u, 16u, 32u}) {
    const auto got = engine.distances_batch(sources, {.lanes = lanes});
    ASSERT_EQ(got.size(), sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const std::string at = what + " lanes " + std::to_string(lanes) +
                             " source " + std::to_string(sources[i]);
      ASSERT_EQ(std::memcmp(got[i].dist.data(), want[i].dist.data(),
                            want[i].dist.size() * sizeof(Value)),
                0)
          << at;
      EXPECT_EQ(got[i].negative_cycle, want[i].negative_cycle) << at;
      EXPECT_FALSE(got[i].negative_cycle) << at;
      EXPECT_EQ(got[i].edges_scanned, one[i].edges_scanned) << at;
      EXPECT_EQ(got[i].phases, one[i].phases) << at;
    }
  }
}

TEST(EndArcs, IntegerWeightsMatchTheFullOracleInEverySemiring) {
  for (const bool mesh : {false, true}) {
    const EndInstance inst = end_instance(mesh, WeightModel::uniform(1, 10));
    const std::vector<Vertex> sources = end_sources(inst.tree, mesh ? 8 : 14);
    for (const std::string weights : {"unit", "uniform", "mixed"}) {
      Rng rng(7);
      const Digraph g = integer_valued(inst.gg.graph, weights, rng);
      const std::string what = inst.name + " " + weights;
      expect_matches_unscheduled<TropicalD>(g, inst.tree, sources,
                                            what + " TropicalD");
      expect_matches_unscheduled<TropicalI>(g, inst.tree, sources,
                                            what + " TropicalI");
      expect_matches_unscheduled<BooleanSR>(g, inst.tree, sources,
                                            what + " BooleanSR");
      expect_matches_unscheduled<BottleneckSR>(g, inst.tree, sources,
                                               what + " BottleneckSR");
    }
  }
}

TEST(EndArcs, RealWeightsMatchDijkstraAndBellmanFord) {
  for (const bool mesh : {false, true}) {
    for (const bool mixed : {false, true}) {
      const EndInstance inst =
          end_instance(mesh, mixed ? WeightModel::mixed_sign(8.0)
                                   : WeightModel::uniform(1, 10));
      const Digraph& g = inst.gg.graph;
      const auto engine = SeparatorShortestPaths<>::build(g, inst.tree);
      const std::vector<Vertex> sources = end_sources(inst.tree, 8);
      for (const std::size_t lanes : {1u, 8u, 16u, 32u}) {
        const auto got = engine.distances_batch(sources, {.lanes = lanes});
        for (std::size_t i = 0; i < sources.size(); ++i) {
          const std::vector<double> want =
              mixed ? bellman_ford(g, sources[i]).dist
                    : dijkstra(g, sources[i]).dist;
          EXPECT_FALSE(got[i].negative_cycle);
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            if (std::isinf(want[v])) {
              ASSERT_TRUE(std::isinf(got[i].dist[v])) << v;
            } else {
              ASSERT_NEAR(got[i].dist[v], want[v], 1e-8)
                  << inst.name << (mixed ? " mixed" : " uniform")
                  << " lanes " << lanes << " source " << sources[i]
                  << " v " << v;
            }
          }
        }
      }
    }
  }
}

/// The climb written out slot by slot for a block of sources: ell
/// rounds over the lead arcs, then the first sweep's buckets in order,
/// where a `from` run is skipped when its tail is unreached in every
/// source at the moment the run is reached. Returns the skipped slots.
template <Semiring S>
std::uint64_t reference_climb_skips(const SeparatorShortestPaths<S>& engine,
                                    const std::vector<Vertex>& sources) {
  using Value = typename S::Value;
  const std::size_t n = engine.graph().num_vertices();
  std::vector<std::vector<Value>> dist(sources.size(),
                                       std::vector<Value>(n, S::zero()));
  for (std::size_t k = 0; k < sources.size(); ++k) {
    dist[k][sources[k]] = S::one();
  }
  const std::vector<Vertex> ends_from = slot_tails(engine.end_edges());
  const std::vector<Vertex> eplus_from = slot_tails(engine.shortcut_edges());
  const auto relax = [&](const EdgeBucket<S>& edges, std::size_t i) {
    const std::vector<Vertex>& from =
        &edges == &engine.end_edges() ? ends_from : eplus_from;
    for (std::vector<Value>& d : dist) {
      const Value du = d[from[i]];
      if (!S::improves(S::zero(), du)) continue;
      Value& dv = d[edges.to_data()[i]];
      dv = S::combine(dv, S::extend(du, edges.value(i)));
    }
  };
  const EdgeRange lead = engine.lead_edges();
  for (std::size_t round = 0; round < engine.augmentation().ell; ++round) {
    for (std::size_t i = lead.lo; i < lead.hi; ++i) {
      relax(engine.end_edges(), i);
    }
  }
  const EdgeBucket<S>& eplus = engine.shortcut_edges();
  std::uint64_t skipped = 0;
  for (std::uint32_t l = engine.augmentation().height + 1; l-- > 0;) {
    for (const EplusPlan::Kind kind : {EplusPlan::kSame, EplusPlan::kDown}) {
      const EdgeRange r = engine.bucket(kind, l);
      for (std::size_t i = r.lo; i < r.hi;) {
        const Vertex u = eplus_from[i];
        std::size_t end = i;
        while (end < r.hi && eplus_from[end] == u) ++end;
        const bool unreached = std::all_of(
            dist.begin(), dist.end(),
            [&](const std::vector<Value>& d) { return d[u] == S::zero(); });
        for (; i < end; ++i) {
          if (unreached) {
            ++skipped;
          } else {
            relax(eplus, i);
          }
        }
      }
    }
  }
  return skipped;
}

TEST(EndArcs, ClimbSkipsExactlyTheRunsStillUnreachedWhenReached) {
  // The engine tests a run's tail only after the bucket's earlier slots
  // are relaxed, so its skip count is the slot-by-slot reference's, for
  // one source and for a block of eight, and a batch of copies of one
  // source skips what that source skips alone.
  for (const bool mesh : {false, true}) {
    const EndInstance inst = end_instance(mesh, WeightModel::uniform(1, 10));
    const auto engine =
        SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
    const auto skips_of = [&](const auto& body) {
      const std::uint64_t before = engine.stats().climb_slots_skipped;
      body();
      return engine.stats().climb_slots_skipped - before;
    };
    // The unleveled sources, then every 7th vertex: a flush that reaches
    // the tail it was flushed for is rare, and needs many sources to
    // show.
    std::vector<Vertex> sources = end_sources(inst.tree, 8);
    for (Vertex v = 0; v < inst.gg.graph.num_vertices(); v += 7) {
      sources.push_back(v);
    }
    std::uint64_t total = 0;
    for (const Vertex s : sources) {
      const std::uint64_t want = reference_climb_skips(engine, {s});
      EXPECT_EQ(skips_of([&] { (void)engine.distances(s); }), want)
          << inst.name << " source " << s;
      const std::vector<Vertex> copies(8, s);
      EXPECT_EQ(skips_of([&] {
                  (void)engine.distances_batch(copies, {.lanes = 8});
                }),
                want)
          << inst.name << " 8 copies of " << s;
      total += want;
    }
    EXPECT_GT(total, 0u) << inst.name;
    ASSERT_GE(sources.size(), 8u) << inst.name;
    const std::vector<Vertex> block(sources.begin(), sources.begin() + 8);
    EXPECT_EQ(skips_of([&] {
                (void)engine.distances_batch(block, {.lanes = 8});
              }),
              reference_climb_skips(engine, block))
        << inst.name << " block of 8";
  }
}

TEST(EndArcs, NegativeCycleThroughUnleveledVerticesIsStillFlagged) {
  // A negative 2-cycle on one tree arc between two unleveled vertices:
  // every source that reaches it is flagged, in every lane.
  const EndInstance inst = end_instance(false, WeightModel::uniform(1, 10));
  const LevelAssignment& levels = inst.tree.eplus_plan()->levels;
  std::vector<EdgeTriple> edges = inst.gg.graph.edge_list();
  std::size_t bad = edges.size();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!levels.defined(edges[i].from) && !levels.defined(edges[i].to)) {
      bad = i;
      break;
    }
  }
  ASSERT_LT(bad, edges.size());
  const Vertex u = edges[bad].from, v = edges[bad].to;
  GraphBuilder b(inst.gg.graph.num_vertices());
  for (EdgeTriple e : edges) {
    if ((e.from == u && e.to == v) || (e.from == v && e.to == u)) {
      e.weight = -3.0;
    }
    b.add_edge(e.from, e.to, e.weight);
  }
  const Digraph g = std::move(b).build(/*dedup_min=*/false);
  const auto engine =
      build_augmentation_doubling<TropicalD>(g, inst.tree);
  ASSERT_TRUE(engine.detects_negative_cycles());
  const std::vector<Vertex> sources = end_sources(inst.tree, 8);
  const auto got = engine.distances_batch(sources, {.lanes = 8});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    // The tree is connected in both directions: every source reaches
    // the cycle.
    EXPECT_TRUE(got[i].negative_cycle) << "source " << sources[i];
    EXPECT_TRUE(engine.distances(sources[i]).negative_cycle);
  }
}

// --- run tables ----------------------------------------------------------

using Pairs = std::vector<std::pair<Vertex, Vertex>>;

/// `edges` is `want` (slot i's (from, to) pair) in run form: the runs
/// tile the array, every (tail, to) read back equals want's pair at the
/// same position, every cut is one of PairBlock's four rules (a caller
/// boundary in `bounds`, a change of tail, a slab multiple, the slot
/// after a self-loop) and every slot where a rule applies opens a run.
/// Counts the cuts only the slab rule makes into *slab_cuts.
template <Semiring S>
void expect_run_form(const EdgeBucket<S>& edges, const Pairs& want,
                     const std::vector<std::size_t>& bounds,
                     const std::string& what, std::size_t* slab_cuts) {
  const std::size_t n = edges.size();
  const std::size_t runs = edges.num_runs();
  const Vertex* tail = edges.tail_data();
  const std::uint32_t* start = edges.start_data();
  ASSERT_EQ(n, want.size()) << what;
  ASSERT_EQ(start[0], 0u) << what;
  ASSERT_EQ(start[runs], n) << what;
  std::vector<char> opens(n + 1, 0), bound(n + 1, 0);
  for (std::size_t r = 0; r < runs; ++r) {
    ASSERT_LT(start[r], start[r + 1]) << what << " run " << r;
    opens[start[r]] = 1;
    for (std::size_t i = start[r]; i < start[r + 1]; ++i) {
      ASSERT_EQ(tail[r], want[i].first) << what << " slot " << i;
      ASSERT_EQ(edges.to_data()[i], want[i].second) << what << " slot " << i;
    }
  }
  for (const std::size_t b : bounds) bound[b] = 1;
  *slab_cuts = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const bool tail_change = want[i].first != want[i - 1].first;
    const bool self_loop = want[i - 1].first == want[i - 1].second;
    const bool slab = i % PairBlock::kRunSlots == 0;
    EXPECT_EQ(opens[i] != 0, bound[i] || tail_change || slab || self_loop)
        << what << " slot " << i;
    if (slab && !bound[i] && !tail_change && !self_loop) ++*slab_cuts;
  }
}

/// The (from, to) pair of every slot of E+, read from the tree through
/// the slot's first owner entry (EplusPlan::node_offset's layout).
Pairs eplus_pairs(const SeparatorTree& tree, const EplusPlan& plan) {
  Pairs out;
  for (std::size_t s = 0; s < plan.num_slots(); ++s) {
    const std::size_t e = plan.owner_entry[plan.owner_offset[s]];
    const std::size_t id = static_cast<std::size_t>(
        std::upper_bound(plan.node_offset.begin(), plan.node_offset.end(), e) -
        plan.node_offset.begin() - 1);
    const DecompNode& t = tree.node(id);
    std::size_t k = e - plan.node_offset[id];
    const std::size_t sep = t.separator.size() * t.separator.size();
    const std::vector<Vertex>& verts = k < sep ? t.separator : t.boundary;
    if (k >= sep) k -= sep;
    out.emplace_back(verts[k / verts.size()], verts[k % verts.size()]);
  }
  return out;
}

TEST(RunTable, EveryEdgeArrayIsItsPairsInRunForm) {
  struct RunCase {
    std::string name;
    GeneratedGraph gg;
    SeparatorTree tree;
  };
  std::vector<RunCase> cases;
  for (const bool mesh : {true, false}) {
    EndInstance inst = end_instance(mesh, WeightModel::uniform(1, 10));
    cases.push_back({inst.name, std::move(inst.gg), std::move(inst.tree)});
  }
  {
    Rng rng(9);
    RunCase c{"grid9^3", make_grid({9, 9, 9}, WeightModel::mixed_sign(6.0), rng),
           {}};
    c.tree = build_separator_tree(Skeleton(c.gg.graph),
                                  make_grid_finder({9, 9, 9}));
    cases.push_back(std::move(c));
  }
  for (const RunCase& c : cases) {
    const Digraph& g = c.gg.graph;
    const EplusPlan& plan = *c.tree.eplus_plan();
    const auto engine = SeparatorShortestPaths<>::build(g, c.tree);
    std::size_t slab_cuts = 0;

    // E+: cut at every bucket boundary.
    const std::vector<std::size_t> buckets(plan.bucket_offset.begin(),
                                           plan.bucket_offset.end());
    expect_run_form(engine.shortcut_edges(), eplus_pairs(c.tree, plan),
                    buckets, c.name + " E+", &slab_cuts);
    if (c.name == "grid9^3") {
      EXPECT_GT(slab_cuts, 0u) << "grid 9^3 has E+ runs across slab multiples";
    }

    // Base arcs: the CSR out-lists.
    Pairs base;
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (const Arc& a : g.out(u)) base.emplace_back(u, a.to);
    }
    expect_run_form(engine.base_edges(), base, {}, c.name + " base",
                    &slab_cuts);

    // End arcs: tail-only | both | head-only, each in CSR order, cut at
    // the class boundaries.
    const LevelAssignment& levels = plan.levels;
    std::array<Pairs, 3> classes;
    for (const auto& [u, v] : base) {
      const bool tail = !levels.defined(u);
      const bool head = !levels.defined(v);
      if (tail || head) classes[tail ? (head ? 1 : 0) : 2].emplace_back(u, v);
    }
    Pairs ends;
    for (const Pairs& k : classes) ends.insert(ends.end(), k.begin(), k.end());
    const std::size_t a = classes[0].size();
    const std::size_t b = a + classes[1].size();
    expect_run_form(engine.end_edges(), ends, {a, b}, c.name + " ends",
                    &slab_cuts);
    EXPECT_EQ(engine.lead_edges().hi, b) << c.name;
    EXPECT_EQ(engine.trail_edges().lo, a) << c.name;
  }
}

}  // namespace
}  // namespace sepsp
