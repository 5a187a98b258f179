// SIMD substrate correctness (semiring/simd.hpp).
//
// The contract under test: every dispatch tier produces BIT-identical
// results to the scalar reference — distances, change flags, counters —
// for all four semirings, including zero()/one() sentinels (+-inf),
// denormal-adjacent values, ragged lane counts, and self-loops. Bit
// identity is checked with memcmp, not operator== (so a -0.0 vs +0.0
// divergence would be caught).
//
// The dense kernels (product, fw_panel) are checked entry by entry, each
// dispatched under force_tier: every tier against the scalar tier (the
// loops of simd.hpp) and against a naive per-cell loop, at every width
// 1..130, at the node shapes of a 9^3 grid, on strided sub-rectangles
// with guard cells around them, and with whole rows and columns of
// zero().
//
// Also covered: tier naming/parsing, SEPSP_FORCE_ISA resolution (the CI
// force-isa job runs this whole binary under each forced tier — the
// ForcedTierMatchesEnv test is what fails if dispatch ignored the env),
// the simd.cells counter, and the aligned storage helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "semiring/matrix.hpp"
#include "semiring/simd.hpp"
#include "separator/finders.hpp"
#include "util/aligned.hpp"
#include "util/random.hpp"

namespace sepsp {
namespace {

/// Restores the ambient dispatch tier on scope exit, so tests that
/// force tiers cannot leak into each other (or into the ambient
/// SEPSP_FORCE_ISA configuration the CI job pins).
class TierGuard {
 public:
  TierGuard() : saved_(simd::active_tier()) {}
  ~TierGuard() { simd::force_tier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier saved_;
};

/// Every tier this machine can actually run (always includes scalar).
std::vector<simd::Tier> runnable_tiers() {
  std::vector<simd::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
    tiers.push_back(static_cast<simd::Tier>(t));
  }
  return tiers;
}

// --- value generators, per semiring ------------------------------------
// Mixes ordinary values with the hazardous ones: zero()/one() sentinels
// (+-inf for the double semirings), denormal-adjacent magnitudes, and
// signed zeros.

template <typename S>
struct Gen;

template <>
struct Gen<TropicalD> {
  static double dist_value(Rng& rng) {
    switch (rng.next_below(8)) {
      case 0:
        return TropicalD::zero();  // +inf: unreached
      case 1:
        return TropicalD::one();  // 0.0
      case 2:
        return -0.0;
      case 3:
        return std::numeric_limits<double>::denorm_min();
      case 4:
        return -std::numeric_limits<double>::denorm_min() * 3;
      default:
        return rng.next_double(-100.0, 100.0);
    }
  }
  /// Edge / tile-scalar values, zero() ("no path" slots) included.
  static double edge_value(Rng& rng) {
    switch (rng.next_below(7)) {
      case 0:
        return 0.0;
      case 1:
        return std::numeric_limits<double>::denorm_min();
      case 2:
        return TropicalD::zero();
      default:
        return rng.next_double(-10.0, 10.0);
    }
  }
};

template <>
struct Gen<TropicalI> {
  static long long dist_value(Rng& rng) {
    if (rng.next_below(5) == 0) return TropicalI::zero();  // kInf
    return static_cast<long long>(rng.next_below(2001)) - 1000;
  }
  static long long edge_value(Rng& rng) {
    if (rng.next_below(6) == 0) return TropicalI::zero();  // kInf
    return static_cast<long long>(rng.next_below(41)) - 20;
  }
};

template <>
struct Gen<BooleanSR> {
  static std::uint8_t dist_value(Rng& rng) {
    return static_cast<std::uint8_t>(rng.next_below(2));
  }
  static std::uint8_t edge_value(Rng& rng) {
    return static_cast<std::uint8_t>(rng.next_below(6) != 0);
  }
};

template <>
struct Gen<BottleneckSR> {
  static double dist_value(Rng& rng) {
    switch (rng.next_below(6)) {
      case 0:
        return BottleneckSR::zero();  // -inf
      case 1:
        return BottleneckSR::one();  // +inf
      case 2:
        return -0.0;
      default:
        return rng.next_double(-100.0, 100.0);
    }
  }
  static double edge_value(Rng& rng) {
    if (rng.next_below(6) == 0) return BottleneckSR::zero();  // -inf
    return rng.next_double(0.1, 50.0);
  }
};

template <typename V>
bool bits_equal(const std::vector<V>& a, const std::vector<V>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0;
}

// --- kernel-level parity: each tier vs the scalar loops ----------------

/// Runs `body` with dispatch forced to `tier`, then restores the tier
/// that was active before.
template <typename F>
void at_tier(simd::Tier tier, const F& body) {
  TierGuard guard;
  simd::force_tier(tier);
  body();
}

template <typename S>
void check_kernel_parity(simd::Tier tier) {
  using Value = typename S::Value;
  SCOPED_TRACE(std::string("tier=") + simd::tier_name(tier) +
               " semiring=" + typeid(S).name());
  Rng rng(1234 + static_cast<int>(tier));

  for (const std::size_t n : {1u, 3u, 7u, 16u, 33u, 64u, 100u}) {
    // combine_row: fused merge + any-improvement flag.
    std::vector<Value> dst(n), src(n);
    for (auto& v : dst) v = Gen<S>::dist_value(rng);
    for (auto& v : src) v = Gen<S>::dist_value(rng);
    std::vector<Value> d_vec = dst, d_ref = dst;
    bool c_vec = false;
    at_tier(tier, [&] {
      c_vec = simd::combine_row<S>(d_vec.data(), src.data(), n);
    });
    const bool c_ref =
        simd::combine_row_loop<S>(d_ref.data(), src.data(), 0, n);
    EXPECT_TRUE(bits_equal(d_vec, d_ref)) << "combine_row n=" << n;
    EXPECT_EQ(c_vec, c_ref) << "combine_row changed flag n=" << n;
  }

  // Bucket sweeps over a lane-major dist matrix, including self-loops
  // and repeated targets, at ragged lane counts.
  for (const std::size_t lanes : {1u, 3u, 8u, 16u, 23u, 64u}) {
    const std::size_t verts = 17;
    const std::size_t m = 60;
    std::vector<Value> dist0(verts * lanes);
    for (auto& v : dist0) v = Gen<S>::dist_value(rng);
    std::vector<std::uint32_t> from(m), to(m);
    std::vector<Value> value(m);
    for (std::size_t i = 0; i < m; ++i) {
      from[i] = static_cast<std::uint32_t>(rng.next_below(verts));
      // Every 8th edge is a self-loop (exact row aliasing).
      to[i] = (i % 8 == 0) ? from[i]
                           : static_cast<std::uint32_t>(rng.next_below(verts));
      value[i] = Gen<S>::edge_value(rng);
    }

    std::vector<Value> dv = dist0, dr = dist0;
    at_tier(tier, [&] {
      simd::bucket_sweep<S>(dv.data(), from.data(), to.data(), value.data(),
                            m, lanes);
    });
    at_tier(simd::Tier::kScalar, [&] {
      simd::bucket_sweep<S>(dr.data(), from.data(), to.data(), value.data(),
                            m, lanes);
    });
    EXPECT_TRUE(bits_equal(dv, dr)) << "sweep lanes=" << lanes;
    // And both equal the guarded extend, edge by edge; a lane's change
    // flag is set iff some store there changed its value.
    std::vector<Value> dg = dist0;
    std::vector<std::uint8_t> cg(lanes, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        Value& d = dg[to[i] * lanes + l];
        const Value next =
            S::combine(d, S::extend(dg[from[i] * lanes + l], value[i]));
        cg[l] |= static_cast<std::uint8_t>(next != d);
        d = next;
      }
    }
    EXPECT_TRUE(bits_equal(dr, dg)) << "guarded sweep lanes=" << lanes;

    std::vector<Value> tv = dist0, tr = dist0;
    std::vector<std::uint8_t> cv(lanes, 0), cr(lanes, 0);
    at_tier(tier, [&] {
      simd::bucket_sweep<S>(tv.data(), from.data(), to.data(), value.data(),
                            m, lanes, cv.data());
    });
    at_tier(simd::Tier::kScalar, [&] {
      simd::bucket_sweep<S>(tr.data(), from.data(), to.data(), value.data(),
                            m, lanes, cr.data());
    });
    EXPECT_TRUE(bits_equal(tv, tr)) << "tracked sweep lanes=" << lanes;
    EXPECT_TRUE(bits_equal(tr, dg)) << "guarded tracked sweep lanes=" << lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(cv[l] != 0, cr[l] != 0)
          << "tracked sweep changed flag lane=" << l << " lanes=" << lanes;
      EXPECT_EQ(cr[l] != 0, cg[l] != 0)
          << "guarded changed flag lane=" << l << " lanes=" << lanes;
    }
  }
}

template <typename S>
class SimdKernelParity : public ::testing::Test {};
using AllSemirings =
    ::testing::Types<TropicalD, TropicalI, BooleanSR, BottleneckSR>;
TYPED_TEST_SUITE(SimdKernelParity, AllSemirings);

// --- dense kernels: product and fw_panel entries -----------------------

/// A rows x cols sub-rectangle at (kPad, kPad) of a buffer with row
/// stride cols + 2 * kPad, surrounded by guard cells that no kernel may
/// touch.
template <typename S>
struct Strided {
  using Value = typename S::Value;
  static constexpr std::size_t kPad = 3;
  std::size_t rows, cols, ld;
  std::vector<Value> cells;

  Strided(std::size_t r, std::size_t c, Rng& rng)
      : rows(r), cols(c), ld(c + 2 * kPad), cells((r + 2 * kPad) * ld) {
    for (auto& v : cells) v = Gen<S>::dist_value(rng);
  }
  Value* at(std::size_t i, std::size_t j) {
    return cells.data() + (i + kPad) * ld + (j + kPad);
  }
  const Value* at(std::size_t i, std::size_t j) const {
    return cells.data() + (i + kPad) * ld + (j + kPad);
  }
};

/// Naive o ⊕= a ⊗ b, one cell at a time: k ascending, zero() multipliers
/// skipped — the order every tier's product must reproduce.
template <typename S>
void naive_product(Strided<S>& o, const Strided<S>& a, const Strided<S>& b,
                   std::size_t mid) {
  for (std::size_t i = 0; i < o.rows; ++i) {
    for (std::size_t j = 0; j < o.cols; ++j) {
      auto acc = *o.at(i, j);
      for (std::size_t k = 0; k < mid; ++k) {
        const auto aik = *a.at(i, k);
        if (!S::improves(S::zero(), aik)) continue;
        acc = S::combine(acc, S::extend(aik, *b.at(k, j)));
      }
      *o.at(i, j) = acc;
    }
  }
}

/// One product shape on every runnable tier: each tier's dispatched
/// product must match the naive loop bit for bit, guard cells included.
template <typename S>
void check_product_shape(std::size_t rows, std::size_t mid, std::size_t cols,
                         Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << rows << "x" << mid << "x" << cols << " " << typeid(S).name());
  Strided<S> o(rows, cols, rng), a(rows, mid, rng), b(mid, cols, rng);
  // Whole rows and columns of zero(): a row of a, a column of a, a row
  // of b (each skipped or absorbed exactly as the naive loop does).
  for (std::size_t k = 0; k < mid; ++k) *a.at(rows / 2, k) = S::zero();
  for (std::size_t i = 0; i < rows; ++i) *a.at(i, mid / 2) = S::zero();
  for (std::size_t j = 0; j < cols; ++j) *b.at(mid - 1, j) = S::zero();
  Strided<S> want = o;
  naive_product(want, a, b, mid);
  for (const simd::Tier t : runnable_tiers()) {
    Strided<S> got = o;
    at_tier(t, [&] {
      simd::product<S>(got.at(0, 0), got.ld, a.at(0, 0), a.ld, b.at(0, 0),
                       b.ld, rows, mid, cols);
    });
    ASSERT_TRUE(bits_equal(got.cells, want.cells))
        << "product tier=" << simd::tier_name(t);
  }
}

TYPED_TEST(SimdKernelParity, ProductEveryWidthEveryTier) {
  using S = TypeParam;
  Rng rng(401);
  for (std::size_t d = 1; d <= 130; ++d) {
    // d runs through every value in each of the three dimensions; the
    // partners cycle through the row-block and vector-width remainders.
    check_product_shape<S>(1 + d % 11, 1 + d % 7, d, rng);
    check_product_shape<S>(d, 1 + d % 5, 1 + d % 19, rng);
    check_product_shape<S>(1 + d % 13, d, 1 + d % 17, rng);
  }
}

TYPED_TEST(SimdKernelParity, ProductNodeShapesEveryTier) {
  using S = TypeParam;
  Rng rng(402);
  // |B| x |S| x |S| and |B| x |S| x |B| products of a 9^3 grid's nodes.
  const std::size_t shapes[][3] = {{81, 45, 81}, {81, 45, 45}, {81, 25, 81},
                                   {61, 25, 61}, {59, 15, 59}, {26, 9, 26},
                                   {64, 64, 64}, {130, 130, 130}};
  for (const auto& sh : shapes) {
    check_product_shape<S>(sh[0], sh[1], sh[2], rng);
  }
}

/// Runs the whole blocked Floyd–Warshall over an n x n strided
/// sub-rectangle with one tier's dispatched entries: fw_panel per
/// k-panel, then a product per interior tile (the order of
/// floyd_warshall_blocked).
template <typename S>
void fw_at_tier(simd::Tier tier, Strided<S>& m) {
  TierGuard guard;
  simd::force_tier(tier);
  const std::size_t n = m.rows;
  const std::size_t T = kKernelTile;
  for (std::size_t k0 = 0; k0 < n; k0 += T) {
    const std::size_t k1 = std::min(n, k0 + T);
    simd::fw_panel<S>(m.at(0, 0), m.ld, n, k0, k1);
    for (std::size_t i0 = 0; i0 < n; i0 += T) {
      for (std::size_t j0 = 0; j0 < n; j0 += T) {
        if (i0 == k0 || j0 == k0) continue;
        simd::product<S>(m.at(i0, j0), m.ld, m.at(i0, k0), m.ld, m.at(k0, j0),
                         m.ld, std::min(n, i0 + T) - i0, k1 - k0,
                         std::min(n, j0 + T) - j0);
      }
    }
  }
}

TYPED_TEST(SimdKernelParity, FwPanelStridedEveryTier) {
  using S = TypeParam;
  Rng rng(403);
  for (const std::size_t n : {1u, 15u, 45u, 63u, 64u, 65u, 81u, 128u, 130u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Strided<S> input(n, n, rng);
    for (std::size_t j = 0; j < n; ++j) *input.at(n / 2, j) = S::zero();
    Strided<S> want = input;
    fw_at_tier(simd::Tier::kScalar, want);
    for (const simd::Tier t : runnable_tiers()) {
      Strided<S> got = input;
      fw_at_tier(t, got);
      ASSERT_TRUE(bits_equal(got.cells, want.cells))
          << "fw_panel tier=" << simd::tier_name(t);
    }
  }
}


TYPED_TEST(SimdKernelParity, EveryRunnableTierMatchesScalarBitwise) {
  for (const simd::Tier t : runnable_tiers()) {
    check_kernel_parity<TypeParam>(t);
  }
}

// --- matrix kernels: per-tier outputs of the public entry points -------

TYPED_TEST(SimdKernelParity, MatrixKernelsBitIdenticalAcrossTiers) {
  using S = TypeParam;
  TierGuard guard;
  Rng rng(77);
  const std::size_t n = 70;  // forces partial tiles at the fringe
  Matrix<S> input(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_bool(0.4)) input.at(i, j) = Gen<S>::edge_value(rng);
    }
  }

  simd::force_tier(simd::Tier::kScalar);
  const Matrix<S> product_ref = multiply(input, input);
  Matrix<S> fw_ref = input;
  floyd_warshall(fw_ref);
  Matrix<S> sq_ref = input, sq_scratch;
  const bool sq_changed_ref = square_step(sq_ref, sq_scratch);

  for (const simd::Tier t : runnable_tiers()) {
    SCOPED_TRACE(simd::tier_name(t));
    simd::force_tier(t);
    EXPECT_EQ(multiply(input, input), product_ref);
    Matrix<S> fw = input;
    floyd_warshall(fw);
    EXPECT_EQ(fw, fw_ref);
    Matrix<S> sq = input, scratch;
    EXPECT_EQ(square_step(sq, scratch), sq_changed_ref);
    EXPECT_EQ(sq, sq_ref);
  }
}

// --- end-to-end: batched query per tier vs scalar tier -----------------

template <typename S>
void expect_result_bits_eq(const QueryResult<S>& got,
                           const QueryResult<S>& want, const char* what) {
  EXPECT_TRUE(bits_equal(got.dist, want.dist)) << what << ": dist bits";
  EXPECT_EQ(got.negative_cycle, want.negative_cycle) << what;
  EXPECT_EQ(got.edges_scanned, want.edges_scanned) << what;
  EXPECT_EQ(got.phases, want.phases) << what;
}

TYPED_TEST(SimdKernelParity, BatchedQueryBitIdenticalAcrossTiers) {
  using S = TypeParam;
  TierGuard guard;
  Rng rng(91);
  const auto gg = make_grid({9, 9}, WeightModel::uniform(1, 9), rng);
  const auto tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const auto engine = SeparatorShortestPaths<S>::build(gg.graph, tree);
  const std::vector<Vertex> sources{0, 13, 40, 44, 66, 80, 7};  // ragged

  simd::force_tier(simd::Tier::kScalar);
  const auto ref = engine.distances_batch(sources, {.lanes = 8});
  for (const simd::Tier t : runnable_tiers()) {
    SCOPED_TRACE(simd::tier_name(t));
    simd::force_tier(t);
    const auto got = engine.distances_batch(sources, {.lanes = 8});
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_result_bits_eq(got[i], ref[i],
                            ("lane " + std::to_string(i)).c_str());
    }
  }
}

// Negative weights drive the tropical kernels through their saturation
// paths (+inf + negative must stay +inf / kInf must not look reachable).
TEST(SimdEndToEnd, NegativeWeightsBitIdenticalAcrossTiers) {
  TierGuard guard;
  Rng rng(5);
  auto gg = make_grid({8, 8}, WeightModel::uniform(1, 9), rng);
  // Re-weight a scattering of forward arcs negative. Every grid cycle
  // pairs each forward (index-increasing) arc with a backward one, and
  // |w|/16 < 1 <= any backward weight, so no negative cycle arises.
  GraphBuilder b(gg.graph.num_vertices());
  const auto srcs = gg.graph.arc_sources();
  const auto arcs = gg.graph.arcs();
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const bool forward = arcs[i].to > srcs[i];
    const double w = (forward && rng.next_bool(0.3)) ? -arcs[i].weight / 16
                                                     : arcs[i].weight;
    b.add_edge(srcs[i], arcs[i].to, w);
  }
  const Digraph g = std::move(b).build();
  const auto tree = build_separator_tree(Skeleton(g), make_grid_finder({8, 8}));
  const auto engine = SeparatorShortestPaths<TropicalD>::build(g, tree);
  const std::vector<Vertex> sources{0, 9, 27, 63};

  simd::force_tier(simd::Tier::kScalar);
  const auto ref = engine.distances_batch(sources, {.lanes = 8});
  for (const simd::Tier t : runnable_tiers()) {
    SCOPED_TRACE(simd::tier_name(t));
    simd::force_tier(t);
    const auto got = engine.distances_batch(sources, {.lanes = 8});
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_result_bits_eq(got[i], ref[i], "negative-weight lane");
    }
  }
}

// Fuzz: random graphs, ambient tier (whatever SEPSP_FORCE_ISA / CPUID
// resolved) vs forced scalar, bit-identical end to end.
TEST(SimdEndToEnd, FuzzSweepAmbientTierVsScalar) {
  TierGuard guard;
  const simd::Tier ambient = simd::active_tier();
  Rng rng(20260806);
  for (int round = 0; round < 6; ++round) {
    const std::size_t side = 4 + rng.next_below(5);
    auto gg = make_grid({side, side}, WeightModel::uniform(1, 20), rng);
    const auto tree = build_separator_tree(
        Skeleton(gg.graph),
        make_grid_finder({side, side}));
    const auto engine =
        SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);
    std::vector<Vertex> sources;
    for (std::size_t i = 0; i < 11; ++i) {
      sources.push_back(
          static_cast<Vertex>(rng.next_below(gg.graph.num_vertices())));
    }
    simd::force_tier(ambient);
    const auto got = engine.distances_batch(sources, {.lanes = 16});
    simd::force_tier(simd::Tier::kScalar);
    const auto ref = engine.distances_batch(sources, {.lanes = 16});
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_result_bits_eq(got[i], ref[i],
                            ("round " + std::to_string(round)).c_str());
    }
  }
}

// --- dispatch plumbing -------------------------------------------------

TEST(SimdDispatch, TierNamesRoundTrip) {
  using simd::Tier;
  for (const Tier t :
       {Tier::kScalar, Tier::kSse, Tier::kAvx2, Tier::kAvx512}) {
    Tier parsed;
    ASSERT_TRUE(simd::parse_tier(simd::tier_name(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  Tier out;
  EXPECT_FALSE(simd::parse_tier("", &out));
  EXPECT_FALSE(simd::parse_tier("avx1024", &out));
  EXPECT_TRUE(simd::parse_tier("v128", &out));  // alias for sse
  EXPECT_EQ(out, Tier::kSse);
}

TEST(SimdDispatch, TierOrderIsCoherent) {
  EXPECT_LE(static_cast<int>(simd::detected_tier()),
            static_cast<int>(simd::compiled_tier()));
  EXPECT_LE(static_cast<int>(simd::active_tier()),
            static_cast<int>(simd::detected_tier()));
  // The 128-bit tier needs no flags, so every build has it.
  EXPECT_GE(static_cast<int>(simd::compiled_tier()),
            static_cast<int>(simd::Tier::kSse));
}

TEST(SimdDispatch, ForceTierClampsToDetected) {
  TierGuard guard;
  const simd::Tier got = simd::force_tier(simd::Tier::kAvx512);
  EXPECT_EQ(got, simd::detected_tier());
  EXPECT_EQ(simd::active_tier(), simd::detected_tier());
  EXPECT_EQ(simd::force_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
}

// The CI force-isa job runs this binary under SEPSP_FORCE_ISA=<tier>
// and relies on this test to fail if the dispatched tier does not match
// the forced one (clamped to hardware/compile support).
TEST(SimdDispatch, ForcedTierMatchesEnv) {
  const char* forced = std::getenv("SEPSP_FORCE_ISA");
  if (forced == nullptr || *forced == '\0') {
    GTEST_SKIP() << "SEPSP_FORCE_ISA not set";
  }
  simd::Tier want;
  ASSERT_TRUE(simd::parse_tier(forced, &want))
      << "unparsable SEPSP_FORCE_ISA: " << forced;
  if (static_cast<int>(want) > static_cast<int>(simd::detected_tier())) {
    want = simd::detected_tier();  // forcing clamps down, never up
  }
  EXPECT_EQ(simd::active_tier(), want)
      << "active=" << simd::tier_name(simd::active_tier())
      << " forced=" << forced;
}

TEST(SimdDispatch, SimdCellsCounterTracksVectorWork) {
  if (!obs::compiled_in()) GTEST_SKIP() << "SEPSP_OBS=OFF";
  TierGuard guard;
  Matrix<TropicalD> m(40);
  Rng rng(3);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      if (rng.next_bool(0.5)) m.at(i, j) = rng.next_double(1.0, 9.0);
    }
  }
  // The query walk charges a pass's cells only when it ran through a
  // vector kernel: never at one lane, always at more on a vector tier.
  Rng grid_rng(17);
  const auto gg = make_grid({5, 5}, WeightModel::uniform(1, 9), grid_rng);
  const auto tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const auto engine = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);
  ASSERT_FALSE(engine.detects_negative_cycles());
  const Vertex s = 12;
  const std::vector<Vertex> copies(8, s);
  const auto cells_of = [](const auto& body) {
    const auto before = obs::counter("simd.cells").value();
    body();
    return obs::counter("simd.cells").value() - before;
  };

  simd::force_tier(simd::Tier::kScalar);
  EXPECT_EQ(cells_of([&] { (void)multiply(m, m); }), 0u)
      << "scalar tier must not charge simd.cells";
  EXPECT_EQ(cells_of([&] { (void)engine.distances(s); }), 0u);
  EXPECT_EQ(
      cells_of([&] { (void)engine.distances_batch(copies, {.lanes = 8}); }),
      0u);
  if (simd::detected_tier() == simd::Tier::kScalar) return;
  simd::force_tier(simd::detected_tier());
  EXPECT_EQ(cells_of([&] { (void)multiply(m, m); }),
            std::uint64_t{40} * 40 * 40);
  std::uint64_t scanned = 0;
  EXPECT_EQ(cells_of([&] { scanned = engine.distances(s).edges_scanned; }), 0u)
      << "a one-lane walk never enters a vector kernel";
  ASSERT_GT(scanned, 0u);
  EXPECT_EQ(
      cells_of([&] { (void)engine.distances_batch(copies, {.lanes = 8}); }),
      8 * scanned);
}

TEST(SimdDispatch, EngineStatsReportActiveTier) {
  TierGuard guard;
  Rng rng(17);
  const auto gg = make_grid({5, 5}, WeightModel::uniform(1, 9), rng);
  const auto tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const auto engine = SeparatorShortestPaths<TropicalD>::build(gg.graph, tree);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.simd_tier, simd::tier_name(simd::active_tier()));
}

// --- aligned storage helpers ------------------------------------------

TEST(AlignedStorage, VectorDataIsCacheLineAligned) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVector<double> vd(n, 0.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(vd.data()) % kSimdAlign, 0u);
    AlignedVector<std::uint8_t> vb(n, 0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(vb.data()) % kSimdAlign, 0u);
  }
}

TEST(AlignedStorage, PaddedSizeRoundsToWholeBlocks) {
  EXPECT_EQ(padded_size<double>(0), 0u);
  EXPECT_EQ(padded_size<double>(1), 8u);
  EXPECT_EQ(padded_size<double>(8), 8u);
  EXPECT_EQ(padded_size<double>(9), 16u);
  EXPECT_EQ(padded_size<std::uint8_t>(1), 64u);
  EXPECT_EQ(padded_size<std::uint32_t>(17), 32u);
}

}  // namespace
}  // namespace sepsp
