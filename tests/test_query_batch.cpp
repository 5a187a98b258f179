// Source-batched kernel correctness: distances_batch at B lanes must
// reproduce distances() lane for lane — distances (bit-identical:
// lanes share edge order and arithmetic with the scalar kernel),
// per-lane edges_scanned/phases accounting, per-lane negative-cycle
// flags, and ragged last blocks.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "semiring/simd.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

template <Semiring S>
void expect_result_eq(const QueryResult<S>& got, const QueryResult<S>& want,
                      const std::string& what) {
  EXPECT_EQ(got.dist, want.dist) << what << ": distances differ";
  EXPECT_EQ(got.negative_cycle, want.negative_cycle) << what;
  EXPECT_EQ(got.edges_scanned, want.edges_scanned) << what;
  EXPECT_EQ(got.phases, want.phases) << what;
}

template <typename S>
class BatchParity : public ::testing::Test {
 public:
  struct Instance {
    GeneratedGraph gg;
    SeparatorTree tree;
  };

  static Instance make_instance() {
    Rng rng(91);
    Instance inst;
    inst.gg = make_grid({9, 9}, WeightModel::uniform(1, 9), rng);
    inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                     make_grid_finder({9, 9}));
    return inst;
  }

  /// A seeded random 0.7-orientation of a mixed-sign 9x9 grid: each
  /// arc is kept with probability 0.7, so some vertices are unreachable
  /// from some sources and their distances stay zero(), and negative
  /// distances meet zero() edge values.
  static Instance make_oriented_instance() {
    Rng rng(91);
    const GeneratedGraph full =
        make_grid({9, 9}, WeightModel::mixed_sign(), rng);
    GraphBuilder b(full.graph.num_vertices());
    Rng orient(7);
    for (const EdgeTriple& e : full.graph.edge_list()) {
      if (orient.next_bool(0.7)) b.add_edge(e.from, e.to, e.weight);
    }
    Instance inst;
    inst.gg.graph = std::move(b).build();
    inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                     make_grid_finder({9, 9}));
    return inst;
  }
};

using AllSemirings =
    ::testing::Types<TropicalD, TropicalI, BooleanSR, BottleneckSR>;
TYPED_TEST_SUITE(BatchParity, AllSemirings);

TYPED_TEST(BatchParity, FullAndRaggedBlocksMatchScalarRuns) {
  using S = TypeParam;
  const auto inst = TestFixture::make_instance();
  const auto engine =
      SeparatorShortestPaths<S>::build(inst.gg.graph, inst.tree);

  // At every width above 1: one full block, and a full block followed
  // by a ragged one (width - 1 of width lanes seeded). Both lists step
  // through the 81 vertices by a stride coprime to 81, so their sources
  // are distinct, but for the ragged list's repeated first source.
  const std::size_t n = inst.gg.graph.num_vertices();
  for (const std::size_t lanes : {2, 4, 8, 16, 32}) {
    std::vector<Vertex> full(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      full[i] = static_cast<Vertex>((i * 13) % n);
    }
    std::vector<Vertex> ragged(2 * lanes - 1);
    for (std::size_t i = 0; i < ragged.size(); ++i) {
      ragged[i] = static_cast<Vertex>((7 + i * 22) % n);
    }
    ragged[1] = ragged[0];  // duplicate sources allowed
    for (const auto& sources : {full, ragged}) {
      const auto block = engine.distances_batch(sources, {.lanes = lanes});
      ASSERT_EQ(block.size(), sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        expect_result_eq(block[i], engine.distances(sources[i]),
                         std::to_string(lanes) + " lanes, source " +
                             std::to_string(i));
      }
    }
  }
}

TYPED_TEST(BatchParity, EngineBatchMatchesPerSourcePath) {
  using S = TypeParam;
  const auto inst = TestFixture::make_instance();
  const auto engine =
      SeparatorShortestPaths<S>::build(inst.gg.graph, inst.tree);
  // 81 sources with kBatchLanes = 8 exercises a ragged last block.
  std::vector<Vertex> sources(inst.gg.graph.num_vertices());
  for (Vertex v = 0; v < sources.size(); ++v) sources[v] = v;
  const auto batched = engine.distances_batch(sources);
  const auto persource = engine.distances_batch(sources, {.lanes = 1});
  ASSERT_EQ(batched.size(), persource.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_result_eq(batched[i], persource[i],
                     "source " + std::to_string(sources[i]));
  }
}

/// Every source's distances_batch at width 1 against 8, 16 and 32
/// lanes: dist memcmp-equal, counters and negative_cycle equal.
template <Semiring S>
void expect_width_one_matches_lanes(const SeparatorShortestPaths<S>& engine,
                                    std::size_t n) {
  std::vector<Vertex> sources(n);
  std::iota(sources.begin(), sources.end(), Vertex{0});
  const auto one = engine.distances_batch(sources, {.lanes = 1});
  ASSERT_EQ(one.size(), n);
  std::size_t unreached = 0;
  for (const QueryResult<S>& r : one) {
    for (const auto d : r.dist) unreached += d == S::zero() ? 1 : 0;
  }
  EXPECT_GT(unreached, 0u) << "the instance must leave pairs unreachable";
  for (const std::size_t lanes : {8u, 16u, 32u}) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    const auto wide = engine.distances_batch(sources, {.lanes = lanes});
    ASSERT_EQ(wide.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(wide[i].dist.size(), one[i].dist.size());
      EXPECT_EQ(std::memcmp(wide[i].dist.data(), one[i].dist.data(),
                            one[i].dist.size() * sizeof(typename S::Value)),
                0)
          << "source " << i;
      EXPECT_EQ(wide[i].edges_scanned, one[i].edges_scanned) << "source " << i;
      EXPECT_EQ(wide[i].phases, one[i].phases) << "source " << i;
      EXPECT_EQ(wide[i].negative_cycle, one[i].negative_cycle)
          << "source " << i;
    }
  }
}

TYPED_TEST(BatchParity, WidthOneMatchesLanesWithUnreachableVertices) {
  // The width-1 walk extends zero() slots and zero() edge values here;
  // the uncertified Algorithm 4.3 engine also runs its negative-cycle
  // check over them. Both at the ambient tier and on the scalar loops.
  using S = TypeParam;
  const auto inst = TestFixture::make_oriented_instance();
  const std::size_t n = inst.gg.graph.num_vertices();
  const simd::Tier ambient = simd::active_tier();
  for (const simd::Tier tier : {ambient, simd::Tier::kScalar}) {
    SCOPED_TRACE(::testing::Message() << "tier=" << static_cast<int>(tier));
    simd::force_tier(tier);
    {
      SCOPED_TRACE("build");
      expect_width_one_matches_lanes(
          SeparatorShortestPaths<S>::build(inst.gg.graph, inst.tree), n);
    }
    {
      SCOPED_TRACE("Algorithm 4.3");
      expect_width_one_matches_lanes(
          build_augmentation_doubling<S>(inst.gg.graph, inst.tree), n);
    }
  }
  simd::force_tier(ambient);
}

/// The output form at `lanes` against the vector form and against
/// distances_into() of each source: 37 sources (a ragged last block at
/// every width above 1) into rows laid out in reverse order with a gap
/// between them, so no row is contiguous with the next.
template <Semiring S>
void expect_rows_match_vector_form(const SeparatorShortestPaths<S>& engine,
                                   std::size_t n, std::size_t lanes) {
  using Value = typename S::Value;
  constexpr std::size_t kSources = 37;
  constexpr std::size_t kGap = 5;
  std::vector<Vertex> sources(kSources);
  for (std::size_t i = 0; i < kSources; ++i) {
    sources[i] = static_cast<Vertex>((3 + i * 29) % n);
  }
  std::vector<Value> storage(kSources * (n + kGap), S::one());
  std::vector<std::span<Value>> rows;
  for (std::size_t i = 0; i < kSources; ++i) {
    rows.emplace_back(storage.data() + (kSources - 1 - i) * (n + kGap), n);
  }
  std::vector<QueryStats> stats(kSources);
  engine.distances_batch(sources, rows, stats, {.lanes = lanes});
  const auto vec = engine.distances_batch(sources, {.lanes = lanes});
  ASSERT_EQ(vec.size(), kSources);
  std::vector<Value> single(n);
  for (std::size_t i = 0; i < kSources; ++i) {
    SCOPED_TRACE(::testing::Message() << "source " << i);
    const QueryStats want = engine.distances_into(sources[i], single);
    EXPECT_EQ(std::memcmp(rows[i].data(), vec[i].dist.data(),
                          n * sizeof(Value)),
              0);
    EXPECT_EQ(std::memcmp(rows[i].data(), single.data(), n * sizeof(Value)),
              0);
    for (const QueryStats& got : {stats[i], static_cast<QueryStats>(vec[i])}) {
      EXPECT_EQ(got.edges_scanned, want.edges_scanned);
      EXPECT_EQ(got.phases, want.phases);
      EXPECT_EQ(got.negative_cycle, want.negative_cycle);
    }
  }
  // The gaps between rows are never written.
  for (std::size_t i = 0; i < kSources; ++i) {
    for (std::size_t k = 0; k < kGap; ++k) {
      EXPECT_EQ(storage[i * (n + kGap) + n + k], S::one());
    }
  }
}

TYPED_TEST(BatchParity, IntoRowsMatchVectorForm) {
  using S = TypeParam;
  const auto inst = TestFixture::make_oriented_instance();
  const std::size_t n = inst.gg.graph.num_vertices();
  const auto built = SeparatorShortestPaths<S>::build(inst.gg.graph, inst.tree);
  const auto doubling =
      build_augmentation_doubling<S>(inst.gg.graph, inst.tree);
  const simd::Tier ambient = simd::active_tier();
  for (const simd::Tier tier : {ambient, simd::Tier::kScalar}) {
    SCOPED_TRACE(::testing::Message() << "tier=" << static_cast<int>(tier));
    simd::force_tier(tier);
    for (const std::size_t lanes : {1u, 8u, 16u, 32u}) {
      SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
      {
        SCOPED_TRACE("build");
        expect_rows_match_vector_form(built, n, lanes);
      }
      {
        SCOPED_TRACE("Algorithm 4.3");
        expect_rows_match_vector_form(doubling, n, lanes);
      }
    }
  }
  simd::force_tier(ambient);
}

/// A negative triangle in one component; a clean component beside it.
/// Lanes whose source reaches the cycle must flag it, the others not, at
/// every width (a one-lane walk included) and at the ambient and scalar
/// tiers.
template <Semiring S>
void expect_negative_cycle_flags_per_lane() {
  GraphBuilder b(7);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 0, 1.0);
  b.add_edge(2, 3, 1.0);  // component {2,3,4}: negative triangle
  b.add_edge(3, 4, 1.0);
  b.add_edge(4, 2, -5.0);
  b.add_edge(5, 6, 2.0);
  b.add_edge(6, 2, 1.0);  // 5 and 6 reach the cycle
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_bfs_finder());
  const auto engine = SeparatorShortestPaths<S>::build(g, tree);
  ASSERT_TRUE(engine.detects_negative_cycles());

  const std::vector<Vertex> sources{0, 2, 5, 1, 3, 6};
  const std::vector<bool> want{false, true, true, false, true, true};
  const simd::Tier ambient = simd::active_tier();
  for (const simd::Tier tier : {ambient, simd::Tier::kScalar}) {
    SCOPED_TRACE(::testing::Message() << "tier=" << static_cast<int>(tier));
    simd::force_tier(tier);
    for (const std::size_t lanes : {1u, 8u, 16u, 32u}) {
      SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
      const auto block = engine.distances_batch(sources, {.lanes = lanes});
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(block[i].negative_cycle, want[i]) << "source " << sources[i];
        expect_result_eq(block[i], engine.distances(sources[i]),
                         "source " + std::to_string(sources[i]));
      }
    }
  }
  simd::force_tier(ambient);
}

TEST(BatchQuery, NegativeCycleFlagsArePerLane) {
  // The two semirings with kDetectNegativeCycles.
  expect_negative_cycle_flags_per_lane<TropicalD>();
  expect_negative_cycle_flags_per_lane<TropicalI>();
}

TEST(BatchQuery, WideLanesHandleShortBlocks) {
  // Fewer sources than lanes: the unseeded lanes must neither corrupt
  // the seeded ones nor appear in the output.
  Rng rng(5);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const std::vector<Vertex> sources{11, 29};
  const auto block = engine.distances_batch(sources, {.lanes = 16});
  ASSERT_EQ(block.size(), 2u);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_result_eq(block[i], engine.distances(sources[i]),
                     "source " + std::to_string(sources[i]));
  }
}

TEST(BatchQuery, RejectsWidthsOutsideTheLaneList) {
  Rng rng(6);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({4, 4}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const std::vector<Vertex> sources{0, 5};
  EXPECT_DEATH((void)engine.distances_batch(sources, {.lanes = 3}),
               "BatchPolicy::lanes");
  EXPECT_DEATH((void)engine.distances_batch(sources, {.lanes = 64}),
               "BatchPolicy::lanes");
}

TEST(BatchQuery, EmptySourceListYieldsEmptyBatch) {
  Rng rng(6);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({4, 4}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  EXPECT_TRUE(engine.distances_batch({}).empty());
}

TEST(BatchQuery, NegativeWeightsMatchScalarExactly) {
  // Mixed-sign weights drive many relaxation rounds; lane trajectories
  // must still be bit-identical to the scalar kernel's.
  Rng rng(12);
  const GeneratedGraph gg = make_grid({8, 8}, WeightModel::mixed_sign(6.0), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({8, 8}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const std::vector<Vertex> sources{0, 21, 42, 63};
  const auto block = engine.distances_batch(sources, {.lanes = 4});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_result_eq(block[i], engine.distances(sources[i]),
                     "source " + std::to_string(sources[i]));
  }
}

TEST(BatchQuery, AllPairsUsesBatchedKernel) {
  Rng rng(13);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  std::vector<Vertex> every(gg.graph.num_vertices());
  for (Vertex v = 0; v < every.size(); ++v) every[v] = v;
  const auto all = engine.distances_batch(every);
  ASSERT_EQ(all.size(), gg.graph.num_vertices());
  for (Vertex s = 0; s < gg.graph.num_vertices(); ++s) {
    EXPECT_EQ(all[s].dist, engine.distances(s).dist) << "source " << s;
  }
}

}  // namespace
}  // namespace sepsp
