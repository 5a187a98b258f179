// (1 + eps)-approximate engine (src/approx): the end-to-end guarantee
// holds for every pair and every eps, the error actually shrinks with
// eps, the engine is the exact TropicalI build over the rounded weights
// bit for bit, the allocation-free and batched query paths agree with
// the scalar one, and the option plumbing rejects every invalid
// spelling and every weight range TropicalI cannot hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "approx/approx.hpp"
#include "baseline/dijkstra.hpp"
#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

ApproxEngine build_approx(const Digraph& g, const SeparatorTree& tree,
                          double eps) {
  ApproxEngine::Options opts;
  opts.build.approx_eps = eps;
  return ApproxEngine::build(g, tree, opts);
}

void expect_guarantee(const Digraph& g, const ApproxEngine& engine,
                      Vertex src, double eps) {
  const std::vector<double> got = engine.distances(src);
  const std::vector<double> want = dijkstra(g, src).dist;
  ASSERT_EQ(got.size(), want.size());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (std::isinf(want[v])) {
      EXPECT_TRUE(std::isinf(got[v])) << "eps=" << eps << " v=" << v;
      continue;
    }
    EXPECT_GE(got[v], want[v] - 1e-9) << "eps=" << eps << " v=" << v;
    EXPECT_LE(got[v], (1 + eps) * want[v] + 1e-9)
        << "eps=" << eps << " v=" << v;
  }
}

TEST(Approx, GuaranteeHoldsOnGrid) {
  Rng rng(1);
  const GeneratedGraph gg =
      make_grid({10, 10}, WeightModel::uniform(0.5, 20), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({10, 10}));
  for (const double eps : {1.0, 0.25, 0.01}) {
    const ApproxEngine engine = build_approx(gg.graph, tree, eps);
    for (const Vertex src : {Vertex{0}, Vertex{55}}) {
      expect_guarantee(gg.graph, engine, src, eps);
    }
  }
}

TEST(Approx, EpsGridFuzz) {
  const double eps_grid[] = {1.0, 0.5, 0.3, 0.1, 0.05, 0.01};
  for (const unsigned seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    // Sparse enough that some pairs stay unreachable.
    const GeneratedGraph gg =
        make_random_digraph(40, 100, WeightModel::uniform(0.5, 10), rng);
    const SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
    for (const double eps : eps_grid) {
      const ApproxEngine engine = build_approx(gg.graph, tree, eps);
      EXPECT_LE(engine.certified_error(), eps + 1e-12);
      for (const Vertex src : {Vertex{0}, Vertex{17}, Vertex{39}}) {
        expect_guarantee(gg.graph, engine, src, eps);
      }
    }
  }
}

TEST(Approx, SingleVertexGraph) {
  GraphBuilder b(1);
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_bfs_finder());
  const ApproxEngine engine = build_approx(g, tree, 0.5);
  const std::vector<double> got = engine.distances(0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0.0);
}

TEST(Approx, ErrorShrinksWithEps) {
  Rng rng(2);
  const GeneratedGraph gg =
      make_triangulated_grid(9, 9, WeightModel::uniform(1, 30), rng);
  const SeparatorTree tree = build_separator_tree(
      Skeleton(gg.graph), make_geometric_finder(gg.coords));
  const auto want = dijkstra(gg.graph, 0).dist;
  std::vector<double> errors;
  for (const double eps : {0.8, 0.2, 0.05}) {
    const ApproxEngine engine = build_approx(gg.graph, tree, eps);
    const auto got = engine.distances(0);
    double max_rel = 0;
    for (Vertex v = 1; v < gg.graph.num_vertices(); ++v) {
      if (want[v] > 0) {
        max_rel = std::max(max_rel, (got[v] - want[v]) / want[v]);
      }
    }
    EXPECT_LE(max_rel, eps + 1e-12);
    errors.push_back(max_rel);
  }
  EXPECT_LE(errors.back(), errors.front() + 1e-12);
}

TEST(Approx, UnreachableStaysInfinite) {
  Rng rng(3);
  const GeneratedGraph gg = make_path(30, WeightModel::uniform(1, 5), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_tree_finder());
  const ApproxEngine engine = build_approx(gg.graph, tree, 0.1);
  const auto got = engine.distances(15);
  for (Vertex v = 0; v < 15; ++v) EXPECT_TRUE(std::isinf(got[v]));
  for (Vertex v = 15; v < 30; ++v) EXPECT_FALSE(std::isinf(got[v]));
}

TEST(Approx, UnitScalesWithEps) {
  Rng rng(4);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::uniform(2, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  // unit = eps * w_min, so the ratio of units tracks the ratio of
  // budgets.
  const ApproxEngine coarse = build_approx(gg.graph, tree, 0.5);
  const ApproxEngine fine = build_approx(gg.graph, tree, 0.05);
  EXPECT_NEAR(coarse.unit() / fine.unit(), 10.0, 1e-9);
}

// The approximate engine *is* the exact TropicalI engine over the
// weights rounded up to multiples of u = eps * w_min: the same E+ bits,
// the same distances, the same schedule counters, and the same
// negative-cycle certificate, at every budget.
TEST(Approx, MatchesExactBuildOverRoundedWeights) {
  Rng rng(6);
  const GeneratedGraph gg =
      make_grid({8, 8}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({8, 8}));
  const std::span<const Arc> arcs = gg.graph.arcs();
  const std::span<const Vertex> arc_src = gg.graph.arc_sources();
  double w_min = arcs[0].weight;
  for (const Arc& a : arcs) w_min = std::min(w_min, a.weight);
  for (const double eps : {1.0, 0.3, 0.1, 0.01, 1e-6}) {
    const ApproxEngine approx = build_approx(gg.graph, tree, eps);
    EXPECT_EQ(approx.unit(), eps * w_min) << "eps=" << eps;
    EXPECT_EQ(approx.certified_error(), eps);
    EXPECT_TRUE(approx.engine().cycle_certified()) << "eps=" << eps;

    GraphBuilder b(gg.graph.num_vertices());
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      b.add_edge(arc_src[i], arcs[i].to,
                 std::ceil(arcs[i].weight / approx.unit()));
    }
    const Digraph scaled = std::move(b).build();
    const auto exact = SeparatorShortestPaths<TropicalI>::build(scaled, tree);

    // E+ itself, not only the distances it yields: same pairs, same bits.
    ASSERT_EQ(approx.engine().augmentation().plan, exact.augmentation().plan)
        << "eps=" << eps;
    const EdgeBucket<TropicalI>& ap = approx.engine().shortcut_edges();
    const EdgeBucket<TropicalI>& ex = exact.shortcut_edges();
    ASSERT_EQ(ap.size(), ex.size()) << "eps=" << eps;
    for (std::size_t i = 0; i < ap.size(); ++i) {
      const TropicalI::Value a = ap.value(i);
      const TropicalI::Value e = ex.value(i);
      ASSERT_EQ(std::memcmp(&a, &e, sizeof(a)), 0)
          << "eps=" << eps << " shortcut " << i;
    }
    for (const Vertex src : {Vertex{0}, Vertex{37}}) {
      const auto a = approx.engine().distances(src);
      const auto e = exact.distances(src);
      EXPECT_EQ(a.dist, e.dist) << "eps=" << eps << " src=" << src;
      EXPECT_EQ(a.edges_scanned, e.edges_scanned) << "eps=" << eps;
      EXPECT_EQ(a.phases, e.phases) << "eps=" << eps;
      const std::vector<double> rescaled = approx.distances(src);
      for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
        EXPECT_EQ(rescaled[v], static_cast<double>(e.dist[v]) * approx.unit())
            << "eps=" << eps << " src=" << src << " v=" << v;
      }
    }
  }
}

TEST(Approx, DistancesIntoMatchesDistances) {
  Rng rng(7);
  const GeneratedGraph gg =
      make_grid({9, 9}, WeightModel::uniform(0.5, 12), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const ApproxEngine engine = build_approx(gg.graph, tree, 0.2);
  std::vector<double> buf(gg.graph.num_vertices(),
                          -1.0);  // prior contents must be ignored
  for (const Vertex src : {Vertex{0}, Vertex{40}, Vertex{80}}) {
    const QueryStats stats = engine.distances_into(src, buf);
    EXPECT_GT(stats.edges_scanned, 0u);
    EXPECT_EQ(buf, engine.distances(src)) << "src=" << src;
  }
}

/// Every source's rescaled row, through the output-form batch.
std::vector<std::vector<double>> batch_rows(const ApproxEngine& engine,
                                            std::span<const Vertex> sources) {
  const std::size_t n = engine.engine().graph().num_vertices();
  std::vector<std::vector<double>> out(sources.size(),
                                       std::vector<double>(n, -1.0));
  std::vector<std::span<double>> rows(out.begin(), out.end());
  std::vector<QueryStats> stats(sources.size());
  engine.distances_batch(sources, rows, stats);
  return out;
}

TEST(Approx, DistancesBatchMatchesScalar) {
  Rng rng(8);
  const GeneratedGraph gg =
      make_grid({9, 9}, WeightModel::uniform(0.5, 12), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const ApproxEngine engine = build_approx(gg.graph, tree, 0.3);
  const std::vector<Vertex> sources = {0, 7, 7, 13, 40, 64, 80};
  const auto results = batch_rows(engine, sources);
  ASSERT_EQ(results.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(results[i], engine.distances(sources[i]))
        << "lane " << i << " source " << sources[i];
  }
}

TEST(Approx, StatsExposeApproxFields) {
  Rng rng(9);
  const GeneratedGraph gg =
      make_grid({20, 20}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({20, 20}));
  const ApproxEngine engine = build_approx(gg.graph, tree, 0.3);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.approx_eps, 0.3);
  EXPECT_GT(stats.approx_unit, 0.0);
  EXPECT_LE(stats.certified_error, 0.3 + 1e-12);
  EXPECT_GT(stats.certified_error, 0.0);
}

TEST(Approx, StatsCountServedQueries) {
  Rng rng(9);
  const GeneratedGraph gg =
      make_grid({20, 20}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({20, 20}));
  const ApproxEngine engine = build_approx(gg.graph, tree, 0.3);
  (void)batch_rows(engine, std::vector<Vertex>{0, 7, 13, 40});
  (void)engine.distances(5);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_GT(stats.edges_scanned, 0u);
  EXPECT_GT(stats.batch_blocks, 0u);
}

TEST(Approx, ObservedErrorFeedback) {
  Rng rng(10);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const ApproxEngine engine = build_approx(gg.graph, tree, 0.2);
  EXPECT_EQ(engine.max_observed_error(), 0.0);
  engine.note_observed_error(0.01);
  engine.note_observed_error(0.004);  // smaller: max must stick
  EXPECT_EQ(engine.max_observed_error(), 0.01);
  EXPECT_EQ(engine.stats().max_observed_error, 0.01);
}

TEST(Approx, RejectsNonPositiveWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 0.0);
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_bfs_finder());
  EXPECT_DEATH({ (void)build_approx(g, tree, 0.1); }, "positive");
}

TEST(Approx, RejectsWeightRangesTropicalICannotHold) {
  // {1, 1e18} at eps = 0.1: the heavy arc alone rounds to 1e19 units,
  // past long long's range.
  {
    GraphBuilder b(2);
    b.add_edge(0, 1, 1.0);
    b.add_edge(1, 0, 1e18);
    const Digraph g = std::move(b).build();
    const SeparatorTree tree =
        build_separator_tree(Skeleton(g), make_bfs_finder());
    EXPECT_DEATH({ (void)build_approx(g, tree, 0.1); }, "kInf");
  }
  // Every arc fits, but the path 0 -> 1 -> 2 rounds to 2e18 units, past
  // TropicalI::kInf = 2^60: vertex 2 would read as unreachable.
  {
    GraphBuilder b(4);
    b.add_edge(0, 1, 1e17);
    b.add_edge(1, 2, 1e17);
    b.add_edge(2, 3, 1.0);
    const Digraph g = std::move(b).build();
    const SeparatorTree tree =
        build_separator_tree(Skeleton(g), make_bfs_finder());
    EXPECT_DEATH({ (void)build_approx(g, tree, 0.1); }, "kInf");
  }
}

TEST(Approx, RejectsEpsOutOfRange) {
  Rng rng(5);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({4, 4}));
  // Default options carry approx_eps = 0 — meaningless for an
  // approximate build.
  EXPECT_DEATH(
      { (void)ApproxEngine::build(gg.graph, tree, ApproxEngine::Options{}); },
      "approx_eps");
  EXPECT_DEATH({ (void)build_approx(gg.graph, tree, 1.5); }, "approx_eps");
}

TEST(EngineFastPath, SkippingDetectionSavesScansAndStaysExact) {
  Rng rng(5);
  const GeneratedGraph gg =
      make_grid({12, 12}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({12, 12}));
  typename SeparatorShortestPaths<>::Options fast;
  fast.query.detect_negative_cycles = false;
  // The build certifies these positive weights cycle-free, which skips
  // the pass already; Algorithm 4.3 certifies nothing, so its engine
  // pays it. The weights are integers: its distances are the exact
  // build's.
  const auto checked = build_augmentation_doubling<TropicalD>(gg.graph, tree);
  ASSERT_FALSE(checked.cycle_certified());
  const auto unchecked = SeparatorShortestPaths<>::build(gg.graph, tree, fast);
  const auto certified = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto a = checked.distances(0);
  const auto b = unchecked.distances(0);
  const auto c = certified.distances(0);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_LT(b.edges_scanned, a.edges_scanned);
  // The pass is exactly one scan of E u E+ and one phase.
  EXPECT_EQ(a.edges_scanned - b.edges_scanned,
            gg.graph.num_edges() + checked.stats().eplus_edges);
  EXPECT_EQ(a.phases, b.phases + 1);
  // A certified engine skips it without being asked.
  EXPECT_EQ(c.dist, b.dist);
  EXPECT_EQ(c.edges_scanned, b.edges_scanned);
  EXPECT_EQ(c.phases, b.phases);
}

}  // namespace
}  // namespace sepsp
