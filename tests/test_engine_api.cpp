// The SeparatorShortestPaths facade: nested query Options, the unified distances_batch(sources, BatchPolicy) entry
// point, allocation-free distances_into, the QueryResult accessors,
// engine.stats(), and the freeze() snapshot hook.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

struct Fixture {
  GeneratedGraph gg;
  SeparatorTree tree;
};

Fixture make_fixture(std::size_t side = 8, std::uint64_t seed = 11) {
  Rng rng(seed);
  GeneratedGraph gg =
      make_grid({side, side}, WeightModel::uniform(1, 9), rng);
  SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({side, side}));
  return {std::move(gg), std::move(tree)};
}

std::vector<Vertex> every_kth_vertex(std::size_t n, std::size_t k) {
  std::vector<Vertex> sources;
  for (std::size_t v = 0; v < n; v += k) {
    sources.push_back(static_cast<Vertex>(v));
  }
  return sources;
}

// --- Options ----------------------------------------------------------

TEST(EngineOptions, NestedFieldsAreTheSourceOfTruth) {
  const Fixture f = make_fixture();
  SeparatorShortestPaths<>::Options opts;
  EXPECT_TRUE(opts.query.detect_negative_cycles);
  opts.query.detect_negative_cycles = false;
  const auto engine =
      SeparatorShortestPaths<>::build(f.gg.graph, f.tree, opts);
  EXPECT_FALSE(engine.query_options().detect_negative_cycles);
}

// --- batch entry points ----------------------------------------------

TEST(EngineBatch, PolicyVariantsAgreeWithScalarQueries) {
  const Fixture f = make_fixture();
  const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const auto sources = every_kth_vertex(f.gg.graph.num_vertices(), 5);

  const auto def = engine.distances_batch(sources);
  const auto lanes4 = engine.distances_batch(sources, {.lanes = 4});
  const auto scalar = engine.distances_batch(sources, {.lanes = 1});
  ASSERT_EQ(def.size(), sources.size());
  ASSERT_EQ(lanes4.size(), sources.size());
  ASSERT_EQ(scalar.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto one = engine.distances(sources[i]);
    EXPECT_EQ(def[i].dist, one.dist);  // bit-identical lane parity
    EXPECT_EQ(lanes4[i].dist, one.dist);
    EXPECT_EQ(scalar[i].dist, one.dist);
    EXPECT_EQ(def[i].edges_scanned, one.edges_scanned);
    EXPECT_EQ(lanes4[i].edges_scanned, one.edges_scanned);
  }
}

// --- snapshot hooks ----------------------------------------------------

TEST(EngineSnapshot, FreezeYieldsSharedImmutableEngineWithSameResults) {
  const Fixture f = make_fixture();
  auto mutable_engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const auto expected = mutable_engine.distances(7).dist;
  const SeparatorShortestPaths<>::Snapshot snap =
      SeparatorShortestPaths<>::freeze(std::move(mutable_engine));
  const SeparatorShortestPaths<>::Snapshot alias = snap;  // shared handle
  EXPECT_EQ(snap->distances(7).dist, expected);
  EXPECT_EQ(alias->distances(7).dist, expected);
  EXPECT_EQ(snap.use_count(), 2);
}

TEST(EngineBatch, EmptySourceListYieldsEmptyResult) {
  const Fixture f = make_fixture(6);
  const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  EXPECT_TRUE(engine.distances_batch({}).empty());
  EXPECT_TRUE(engine.distances_batch({}, {.lanes = 1}).empty());
}

// --- distances_into / QueryResult accessors ---------------------------

TEST(EngineQuery, DistancesIntoMatchesAllocatingPath) {
  const Fixture f = make_fixture();
  const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  std::vector<double> buf(f.gg.graph.num_vertices(), -1.0);
  for (const Vertex src : {Vertex{0}, Vertex{21}, Vertex{63}}) {
    const auto r = engine.distances(src);
    const QueryStats s = engine.distances_into(src, buf);  // reused buffer
    EXPECT_EQ(buf, r.dist);
    EXPECT_EQ(s.edges_scanned, r.edges_scanned);
    EXPECT_EQ(s.phases, r.phases);
    EXPECT_EQ(s.negative_cycle, r.negative_cycle);
  }
}

TEST(EngineQuery, ReachedAndDistOrHonorTheSentinel) {
  // Two-vertex graph with a single arc 0 -> 1: vertex 0 cannot be
  // reached from 1, so its entry stays at the zero() sentinel.
  GraphBuilder b(2);
  b.add_edge(0, 1, 3.0);
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_bfs_finder());
  const auto engine = SeparatorShortestPaths<>::build(g, tree);
  const auto from1 = engine.distances(1);
  EXPECT_TRUE(from1.reached(1));
  EXPECT_FALSE(from1.reached(0));
  EXPECT_EQ(from1.dist_or(0, -7.0), -7.0);
  EXPECT_EQ(from1.dist_or(1, -7.0), 0.0);
  const auto from0 = engine.distances(0);
  EXPECT_TRUE(from0.reached(1));
  EXPECT_EQ(from0.dist_or(1, -7.0), 3.0);
}

// --- stats ------------------------------------------------------------

TEST(EngineStatsApi, StructuralFieldsAlwaysPopulated) {
  const Fixture f = make_fixture();
  const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.num_vertices, f.gg.graph.num_vertices());
  EXPECT_EQ(st.num_edges, f.gg.graph.num_edges());
  EXPECT_EQ(st.eplus_edges, engine.query_engine().shortcut_edges().size());
  EXPECT_EQ(st.eplus_edges, f.tree.eplus_plan()->num_slots());
  EXPECT_EQ(st.height, f.tree.height());
  EXPECT_EQ(st.diameter_bound, engine.augmentation().diameter_bound());
  EXPECT_EQ(st.levels.size(), static_cast<std::size_t>(st.height) + 1);
  EXPECT_GT(st.build_work, 0u);
  std::ostringstream os;
  st.print(os);  // human sink renders without crashing
  EXPECT_NE(os.str().find("engine stats"), std::string::npos);
}

TEST(EngineStatsApi, CountersTrackQueries) {
  const Fixture f = make_fixture();
  const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const auto sources = every_kth_vertex(f.gg.graph.num_vertices(), 7);
  std::uint64_t expected_edges = 0;
  for (const Vertex s : sources) {
    expected_edges += engine.distances(s).edges_scanned;
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.queries, sources.size());
  EXPECT_EQ(st.edges_scanned, expected_edges);
  EXPECT_GT(st.phases, 0u);
}

TEST(EngineStatsApi, ScalarAndBatchedScanTotalsAgree) {
  // The batched kernel must charge exactly what the scalar schedule
  // charges, per lane — compare whole-engine totals over one engine
  // driven scalar and one driven batched (ragged last block included).
  const Fixture f = make_fixture();
  const auto scalar_engine =
      SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const auto batched_engine =
      SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const auto sources = every_kth_vertex(f.gg.graph.num_vertices(), 3);
  ASSERT_NE(sources.size() % SeparatorShortestPaths<>::kBatchLanes, 0u);

  (void)scalar_engine.distances_batch(sources, {.lanes = 1});
  (void)batched_engine.distances_batch(sources);

  const EngineStats ss = scalar_engine.stats();
  const EngineStats bs = batched_engine.stats();
  EXPECT_EQ(ss.queries, sources.size());
  EXPECT_EQ(bs.queries, sources.size());
  EXPECT_EQ(ss.edges_scanned, bs.edges_scanned);
  EXPECT_EQ(ss.phases, bs.phases);
  // Per-level charges agree too (the schedule's bucket scans).
  ASSERT_EQ(ss.levels.size(), bs.levels.size());
  for (std::size_t l = 0; l < ss.levels.size(); ++l) {
    EXPECT_EQ(ss.levels[l].edges_scanned, bs.levels[l].edges_scanned)
        << "level " << l;
  }
  EXPECT_GT(bs.batch_blocks, 0u);
  EXPECT_GT(bs.lane_occupancy(), 0.0);
  EXPECT_LT(bs.lane_occupancy(), 1.0);  // ragged last block
}

}  // namespace
}  // namespace sepsp
