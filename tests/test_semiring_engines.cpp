// Paper remark (iii): the engine is generic over path-algebra semirings.
// Boolean and bottleneck instances against brute-force references, the
// integer tropical instance against Dijkstra, and a semiring without a
// SIMD kernel kind (the generic scalar path) against TropicalD.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "baseline/dijkstra.hpp"
#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "semiring/matrix.hpp"
#include "semiring/simd.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

template <Semiring S>
Matrix<S> reference_closure(const Digraph& g) {
  Matrix<S> m(g.num_vertices());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    m.at(u, u) = S::one();
    for (const Arc& a : g.out(u)) {
      m.merge(u, a.to, S::from_weight(a.weight));
    }
  }
  floyd_warshall(m);
  return m;
}

TEST(SemiringEngines, BottleneckWidestPaths) {
  // Weights are capacities; the engine computes widest (max-min) paths.
  Rng rng(1);
  const GeneratedGraph gg =
      make_grid({7, 7}, WeightModel::uniform(1, 100), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({7, 7}));
  const auto engine =
      SeparatorShortestPaths<BottleneckSR>::build(gg.graph, tree);
  const auto want = reference_closure<BottleneckSR>(gg.graph);
  for (const Vertex s : {Vertex{0}, Vertex{24}, Vertex{48}}) {
    const auto got = engine.distances(s);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(got.dist[v], want.at(s, v)) << s << "->" << v;
    }
  }
}

TEST(SemiringEngines, BottleneckOnDirectedSparseGraph) {
  Rng rng(2);
  const GeneratedGraph gg =
      make_random_digraph(90, 270, WeightModel::uniform(1, 50), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
  const auto engine =
      SeparatorShortestPaths<BottleneckSR>::build(gg.graph, tree);
  const auto want = reference_closure<BottleneckSR>(gg.graph);
  const auto got = engine.distances(0);
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(got.dist[v], want.at(0, v)) << v;
  }
}

TEST(SemiringEngines, BooleanEngineTemplateMatchesClosure) {
  Rng rng(3);
  const GeneratedGraph gg =
      make_random_digraph(80, 160, WeightModel::unit(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_bfs_finder());
  const auto engine = SeparatorShortestPaths<BooleanSR>::build(gg.graph, tree);
  const auto want = reference_closure<BooleanSR>(gg.graph);
  for (const Vertex s : {Vertex{0}, Vertex{40}}) {
    const auto got = engine.distances(s);
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      EXPECT_EQ(got.dist[v] != 0, want.at(s, v) != 0) << s << "->" << v;
    }
  }
}

TEST(SemiringEngines, IntegerTropicalIsExact) {
  Rng rng(4);
  // Integer weights drawn in [1, 9]; TropicalI must match Dijkstra
  // exactly (no floating-point tolerance at all).
  const GeneratedGraph gg = make_grid({9, 9}, WeightModel::unit(), rng);
  GraphBuilder b(gg.graph.num_vertices());
  Rng wrng(5);
  for (const EdgeTriple& e : gg.graph.edge_list()) {
    b.add_edge(e.from, e.to, static_cast<double>(wrng.next_int(1, 9)));
  }
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({9, 9}));
  const auto engine = SeparatorShortestPaths<TropicalI>::build(g, tree);
  const auto got = engine.distances(0);
  const DijkstraResult dj = dijkstra(g, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(std::isfinite(dj.dist[v]));
    EXPECT_EQ(got.dist[v], static_cast<long long>(dj.dist[v])) << v;
  }
}

TEST(SemiringEngines, BothBuildersAgreeOnBottleneck) {
  Rng rng(6);
  const GeneratedGraph gg =
      make_grid({6, 6}, WeightModel::uniform(1, 30), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  const auto a = SeparatorShortestPaths<BottleneckSR>::build(gg.graph, tree);
  const auto b = build_augmentation_doubling<BottleneckSR>(gg.graph, tree);
  const auto ra = a.distances(0);
  const auto rb = b.distances(0);
  EXPECT_EQ(ra.dist, rb.dist);
}

/// TropicalD's functions under another name, with no simd::KindTraits:
/// every kernel it reaches takes the generic scalar path.
struct PlainTropical {
  using Value = TropicalD::Value;
  static constexpr Value zero() { return TropicalD::zero(); }
  static constexpr Value one() { return TropicalD::one(); }
  static constexpr Value combine(Value a, Value b) {
    return TropicalD::combine(a, b);
  }
  static constexpr Value extend(Value a, Value b) {
    return TropicalD::extend(a, b);
  }
  static constexpr bool improves(Value current, Value candidate) {
    return TropicalD::improves(current, candidate);
  }
  static constexpr Value extend_unguarded(Value a, Value b) {
    return TropicalD::extend_unguarded(a, b);
  }
  static constexpr Value from_weight(double w) {
    return TropicalD::from_weight(w);
  }
  static constexpr bool kDetectNegativeCycles =
      TropicalD::kDetectNegativeCycles;
  static bool detect_improves(Value current, Value candidate) {
    return TropicalD::detect_improves(current, candidate);
  }
};
static_assert(Semiring<PlainTropical>);
static_assert(!simd::kVectorizable<PlainTropical>);

/// Every source's distances_batch at each lane width: the generic
/// engine's dist (memcmp), edges_scanned and negative_cycle equal the
/// TropicalD engine's.
void expect_generic_matches(const SeparatorShortestPaths<PlainTropical>& got,
                            const SeparatorShortestPaths<TropicalD>& want,
                            std::size_t n, const char* builder) {
  SCOPED_TRACE(builder);
  std::vector<Vertex> sources(n);
  std::iota(sources.begin(), sources.end(), Vertex{0});
  for (const std::size_t lanes : {1u, 8u, 32u}) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    const auto g = got.distances_batch(sources, {.lanes = lanes});
    const auto w = want.distances_batch(sources, {.lanes = lanes});
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i].dist.size(), w[i].dist.size());
      EXPECT_EQ(std::memcmp(g[i].dist.data(), w[i].dist.data(),
                            w[i].dist.size() * sizeof(double)),
                0)
          << "source " << i;
      EXPECT_EQ(g[i].edges_scanned, w[i].edges_scanned) << "source " << i;
      EXPECT_EQ(g[i].negative_cycle, w[i].negative_cycle) << "source " << i;
    }
  }
}

TEST(SemiringEngines, GenericSemiringMatchesTropicalD) {
  Rng rng(7);
  const GeneratedGraph gg =
      make_grid({5, 5, 5}, WeightModel::mixed_sign(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5, 5}));
  const std::size_t n = gg.graph.num_vertices();
  const simd::Tier ambient = simd::active_tier();
  for (const simd::Tier tier : {ambient, simd::Tier::kScalar}) {
    SCOPED_TRACE(simd::tier_name(tier));
    simd::force_tier(tier);
    expect_generic_matches(
        SeparatorShortestPaths<PlainTropical>::build(gg.graph, tree),
        SeparatorShortestPaths<TropicalD>::build(gg.graph, tree), n, "build");
    expect_generic_matches(
        build_augmentation_recursive<PlainTropical>(gg.graph, tree,
                                                    ClosureKind::kSquaring),
        build_augmentation_recursive<TropicalD>(gg.graph, tree,
                                                ClosureKind::kSquaring),
        n, "Algorithm 4.1, squaring");
    expect_generic_matches(
        build_augmentation_doubling<PlainTropical>(gg.graph, tree),
        build_augmentation_doubling<TropicalD>(gg.graph, tree), n,
        "Algorithm 4.3");
  }
  simd::force_tier(ambient);
}

}  // namespace
}  // namespace sepsp
