// The SeparatorShortestPaths engine: nested query Options, the unified
// distances_batch(sources, BatchPolicy) entry point, allocation-free
// distances_into, the QueryResult accessors, engine.stats() and its one
// ledger, and the freeze() snapshot hook.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <sstream>
#include <utility>

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
  // A build over a negative cycle certifies nothing, so only the option
  // decides whether the verification pass (one more phase, |E| + |E+|
  // more scans) runs. Arc 0 -> 1 at -20 closes a negative 2-cycle; the
  // skeleton, and so the tree, is unchanged.
  const Fixture f = make_fixture();
  GraphBuilder builder(f.gg.graph.num_vertices());
  for (const EdgeTriple& e : f.gg.graph.edge_list()) {
    builder.add_edge(e.from, e.to,
                     e.from == 0 && e.to == 1 ? -20.0 : e.weight);
  }
  const Digraph g = std::move(builder).build();
  SeparatorShortestPaths<>::Options opts;
  EXPECT_TRUE(opts.query.detect_negative_cycles);
  const auto checked = SeparatorShortestPaths<>::build(g, f.tree, opts);
  opts.query.detect_negative_cycles = false;
  const auto unchecked = SeparatorShortestPaths<>::build(g, f.tree, opts);
  EXPECT_FALSE(checked.cycle_certified());
  EXPECT_TRUE(checked.detects_negative_cycles());
  EXPECT_FALSE(unchecked.detects_negative_cycles());
  const auto a = checked.distances(0);
  const auto b = unchecked.distances(0);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_TRUE(a.negative_cycle);
  EXPECT_FALSE(b.negative_cycle);
  EXPECT_EQ(a.phases, b.phases + 1);
  EXPECT_EQ(a.edges_scanned,
            b.edges_scanned + g.num_edges() + checked.shortcut_edges().size());
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

TEST(EngineQuery, ReachedHonorsTheSentinel) {
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
  EXPECT_EQ(from1.dist[1], 0.0);
  const auto from0 = engine.distances(0);
  EXPECT_TRUE(from0.reached(1));
  EXPECT_EQ(from0.dist[1], 3.0);
}

// --- stats ------------------------------------------------------------

TEST(EngineStatsApi, StructuralFieldsAlwaysPopulated) {
  const Fixture f = make_fixture();
  const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.num_vertices, f.gg.graph.num_vertices());
  EXPECT_EQ(st.num_edges, f.gg.graph.num_edges());
  EXPECT_EQ(st.eplus_edges, engine.shortcut_edges().size());
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

TEST(EngineStatsApi, EveryEntryPointChargesTheOneLedger) {
  // Each public query entry point advances the engine's ledger by
  // exactly what it returned; scheduled walks also charge their bucket
  // scans per level, and the unscheduled ablation charges none.
  const Fixture f = make_fixture();
  const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
  const std::size_t n = f.gg.graph.num_vertices();
  const auto sources = every_kth_vertex(n, 5);  // ragged at 8 lanes
  ASSERT_NE(sources.size() % 8, 0u);
  std::vector<double> buf(n);
  const std::vector<std::pair<Vertex, double>> seeds{{0, 0.0}, {41, 2.5}};
  const auto batch = [&](std::size_t lanes) {
    const auto results = engine.distances_batch(sources, {.lanes = lanes});
    return std::vector<QueryStats>(results.begin(), results.end());
  };
  struct Call {
    const char* name;
    std::function<std::vector<QueryStats>()> run;
    bool scheduled;
  };
  const std::vector<Call> calls{
      {"distances",
       [&] { return std::vector<QueryStats>{engine.distances(3)}; }, true},
      {"distances_into",
       [&] { return std::vector<QueryStats>{engine.distances_into(17, buf)}; },
       true},
      {"distances_batch lanes=1", [&] { return batch(1); }, true},
      {"distances_batch lanes=8", [&] { return batch(8); }, true},
      {"distances_seeded",
       [&] {
         return std::vector<QueryStats>{engine.distances_seeded(seeds)};
       },
       true},
      {"distances_unscheduled",
       [&] {
         return std::vector<QueryStats>{engine.distances_unscheduled(5)};
       },
       false},
  };
  for (const Call& c : calls) {
    const EngineStats before = engine.stats();
    const std::vector<QueryStats> got = c.run();
    const EngineStats after = engine.stats();
    std::uint64_t edges = 0, phases = 0;
    for (const QueryStats& s : got) {
      edges += s.edges_scanned;
      phases += s.phases;
    }
    EXPECT_EQ(after.queries - before.queries, got.size()) << c.name;
    EXPECT_EQ(after.edges_scanned - before.edges_scanned, edges) << c.name;
    EXPECT_EQ(after.phases - before.phases, phases) << c.name;
    // A scheduled walk scans the same buckets twice (down and up
    // sweeps) and each down and up bucket once, per query.
    for (std::size_t l = 0; l < after.levels.size(); ++l) {
      const EngineLevelStats& lv = after.levels[l];
      const std::uint64_t per_query =
          2 * lv.same_edges + lv.down_edges + lv.up_edges;
      EXPECT_EQ(lv.edges_scanned - before.levels[l].edges_scanned,
                c.scheduled ? per_query * got.size() : 0u)
          << c.name << " level " << l;
    }
  }
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
