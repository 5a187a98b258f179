// Parity suite for the cache-blocked dense kernels: the public kernels
// and the element-at-a-time reference oracle (detail::
// multiply_reference_into, detail::floyd_warshall_reference, called
// directly) must produce bit-identical results — same bytes, not just
// "close" — on random matrices and adversarial tile-boundary shapes,
// over all four shipped semirings and on every SIMD tier this machine
// can run (the blocked kernels are one dispatched simd::product /
// simd::fw_panel call per tile or panel).
//
// Why bit-identity is the right bar: multiply/square_step preserve the
// per-cell combine order (k strictly ascending for every output cell),
// so they are unconditionally exact. Blocked Floyd–Warshall re-associates
// cross-tile float additions, so its parity cases use integer-valued
// doubles (exact in IEEE double well past these magnitudes); the
// builders' end-to-end parity below exercises the full pipeline.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/builder_doubling.hpp"
#include "core/builder_recursive.hpp"
#include "graph/generators.hpp"
#include "semiring/simd.hpp"
#include "semiring/matrix.hpp"
#include "semiring/semiring.hpp"
#include "separator/finders.hpp"
#include "util/aligned.hpp"
#include "util/random.hpp"

namespace sepsp {
namespace {

// Sizes straddling the kKernelTile = 64 boundary plus degenerate and
// multi-tile cases.
const std::vector<std::size_t> kParitySizes = {1, 7, 8, 9, 63, 64, 65, 200};

/// The reference product a (x) b, freshly zeroed.
template <Semiring S>
Matrix<S> multiply_reference(const Matrix<S>& a, const Matrix<S>& b) {
  Matrix<S> out(a.rows(), b.cols());
  detail::multiply_reference_into(a, b, out);
  return out;
}

/// The reference closure of `input`.
template <Semiring S>
Matrix<S> floyd_warshall_reference(Matrix<S> m) {
  detail::floyd_warshall_reference(m);
  return m;
}

/// The reference squaring step: the reference product, then a per-cell
/// merge pass. Returns true if any cell improved.
template <Semiring S>
bool square_step_reference(Matrix<S>& m) {
  const Matrix<S> product = multiply_reference(m, m);
  bool changed = false;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (S::improves(m.at(i, j), product.at(i, j))) changed = true;
      m.merge(i, j, product.at(i, j));
    }
  }
  return changed;
}

/// The reference closure by squaring: the steps of
/// closure_by_squaring_inplace over square_step_reference.
template <Semiring S>
Matrix<S> closure_by_squaring_reference(Matrix<S> m) {
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) m.merge(i, i, S::one());
  if (n <= 2) return m;
  const std::size_t steps = std::bit_width(n - 2);
  for (std::size_t s = 0; s < steps; ++s) {
    if (!square_step_reference(m)) break;
  }
  return m;
}

/// Exact per-cell comparison. For doubles compare the bit patterns so
/// that e.g. -0.0 vs +0.0 or differently-rounded sums cannot slip
/// through an operator== comparison.
template <Semiring S>
void expect_bit_identical(const Matrix<S>& a, const Matrix<S>& b,
                          const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if constexpr (std::is_same_v<typename S::Value, double>) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.at(i, j)),
                  std::bit_cast<std::uint64_t>(b.at(i, j)))
            << what << " cell (" << i << "," << j << "): " << a.at(i, j)
            << " vs " << b.at(i, j);
      } else {
        EXPECT_EQ(a.at(i, j), b.at(i, j))
            << what << " cell (" << i << "," << j << ")";
      }
    }
  }
}

Matrix<TropicalD> random_tropical(std::size_t rows, std::size_t cols,
                                  Rng& rng, double density,
                                  bool integer_weights) {
  Matrix<TropicalD> m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (!rng.next_bool(density)) continue;
      m.at(i, j) = integer_weights
                       ? static_cast<double>(rng.next_int(1, 20))
                       : rng.next_double(0.25, 8.0);
    }
  }
  return m;
}

Matrix<BooleanSR> random_boolean(std::size_t rows, std::size_t cols, Rng& rng,
                                 double density) {
  Matrix<BooleanSR> m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.next_bool(density)) m.at(i, j) = 1;
    }
  }
  return m;
}

template <Semiring S>
void check_multiply_parity(const Matrix<S>& a, const Matrix<S>& b) {
  Matrix<S> blocked;
  multiply_into(a, b, blocked);
  expect_bit_identical(blocked, multiply_reference(a, b), "multiply");
}

template <Semiring S>
void check_fw_parity(const Matrix<S>& input) {
  Matrix<S> blocked = input;
  floyd_warshall(blocked);
  expect_bit_identical(blocked, floyd_warshall_reference(input),
                       "floyd_warshall");
}

template <Semiring S>
void check_square_parity(const Matrix<S>& input) {
  Matrix<S> blocked = input;
  Matrix<S> reference = input;
  Matrix<S> scratch;
  const bool cb = square_step(blocked, scratch);
  const bool cr = square_step_reference(reference);
  EXPECT_EQ(cb, cr) << "square_step changed flag";
  expect_bit_identical(blocked, reference, "square_step");
  // The allocating overload doubles as an API check.
  Matrix<S> allocating = input;
  EXPECT_EQ(square_step(allocating), cb) << "square_step changed flag";
  expect_bit_identical(allocating, blocked, "square_step allocating");
}

TEST(KernelParity, MultiplySquareShapesTropical) {
  Rng rng(11);
  for (const std::size_t n : kParitySizes) {
    SCOPED_TRACE(n);
    const auto a = random_tropical(n, n, rng, 0.4, /*integer_weights=*/false);
    const auto b = random_tropical(n, n, rng, 0.4, /*integer_weights=*/false);
    check_multiply_parity(a, b);
  }
}

TEST(KernelParity, MultiplySquareShapesBoolean) {
  Rng rng(12);
  for (const std::size_t n : kParitySizes) {
    SCOPED_TRACE(n);
    check_multiply_parity(random_boolean(n, n, rng, 0.3),
                          random_boolean(n, n, rng, 0.3));
  }
}

TEST(KernelParity, MultiplyRectangularShapes) {
  Rng rng(13);
  const std::size_t shapes[][3] = {
      {1, 200, 1}, {65, 7, 129}, {9, 64, 65}, {64, 65, 63}, {200, 1, 200}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(::testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    const auto a = random_tropical(s[0], s[1], rng, 0.5, false);
    const auto b = random_tropical(s[1], s[2], rng, 0.5, false);
    check_multiply_parity(a, b);
  }
}

TEST(KernelParity, FloydWarshallTropicalIntegerWeights) {
  Rng rng(14);
  for (const std::size_t n : kParitySizes) {
    SCOPED_TRACE(n);
    check_fw_parity(random_tropical(n, n, rng, 0.25, /*integer_weights=*/true));
  }
}

TEST(KernelParity, FloydWarshallSingleTileRealWeights) {
  // Up to one tile the blocked kernel IS the reference loop, so real
  // (non-integer) weights are bit-exact too.
  Rng rng(15);
  for (const std::size_t n : {1u, 9u, 63u, 64u}) {
    SCOPED_TRACE(n);
    check_fw_parity(random_tropical(n, n, rng, 0.3, false));
  }
}

TEST(KernelParity, FloydWarshallBoolean) {
  Rng rng(16);
  for (const std::size_t n : kParitySizes) {
    SCOPED_TRACE(n);
    check_fw_parity(random_boolean(n, n, rng, 0.15));
  }
}

TEST(KernelParity, SquareStepValuesAndChangedFlag) {
  Rng rng(17);
  for (const std::size_t n : kParitySizes) {
    SCOPED_TRACE(n);
    check_square_parity(random_tropical(n, n, rng, 0.3, false));
    check_square_parity(random_boolean(n, n, rng, 0.25));
  }
}

TEST(KernelParity, AdversarialAllZeroAndIdentity) {
  for (const std::size_t n : {64u, 65u, 200u}) {
    SCOPED_TRACE(n);
    check_multiply_parity(Matrix<TropicalD>(n), Matrix<TropicalD>(n));
    check_fw_parity(Matrix<TropicalD>(n));
    check_square_parity(Matrix<TropicalD>(n));
    const auto id = Matrix<TropicalD>::identity(n);
    check_multiply_parity(id, id);
    check_fw_parity(id);
  }
}

TEST(KernelParity, AdversarialTileBoundaryEntries) {
  // Finite entries only in the rows/cols straddling tile boundaries:
  // exercises the panel phases of blocked FW with everything else zero.
  for (const std::size_t n : {65u, 129u, 200u}) {
    SCOPED_TRACE(n);
    Matrix<TropicalD> m(n);
    for (const std::size_t r : {std::size_t{63}, std::size_t{64},
                                std::size_t{65} % n}) {
      for (std::size_t j = 0; j < n; ++j) {
        m.at(r, j) = static_cast<double>((r + j) % 9 + 1);
        m.at(j, r) = static_cast<double>((r * 3 + j) % 7 + 1);
      }
    }
    check_multiply_parity(m, m);
    check_fw_parity(m);
    check_square_parity(m);
  }
}

TEST(KernelParity, NegativeWeightsUpperTriangular) {
  // Negative arcs without negative cycles (DAG order): integer-valued.
  Rng rng(18);
  for (const std::size_t n : {9u, 65u, 200u}) {
    SCOPED_TRACE(n);
    Matrix<TropicalD> m(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.next_bool(0.2)) {
          m.at(i, j) = static_cast<double>(rng.next_int(-5, 10));
        }
      }
    }
    check_fw_parity(m);
    check_multiply_parity(m, m);
  }
}

TEST(KernelParity, ScratchReuseAcrossShapes) {
  // One scratch matrix threaded through products of different shapes —
  // the builders' arena pattern — must match fresh-scratch results.
  Rng rng(19);
  Matrix<TropicalD> reused;
  const std::size_t shapes[][3] = {{65, 9, 70}, {7, 64, 7}, {200, 3, 1}};
  for (const auto& s : shapes) {
    const auto a = random_tropical(s[0], s[1], rng, 0.5, false);
    const auto b = random_tropical(s[1], s[2], rng, 0.5, false);
    multiply_into(a, b, reused);
    const auto fresh = multiply(a, b);
    expect_bit_identical(reused, fresh, "scratch reuse");
  }
}

TEST(KernelParity, ClosureBySquaringParity) {
  Rng rng(20);
  for (const std::size_t n : {9u, 64u, 65u, 129u}) {
    SCOPED_TRACE(n);
    const auto input = random_tropical(n, n, rng, 0.1, false);
    expect_bit_identical(closure_by_squaring(input),
                         closure_by_squaring_reference(input),
                         "closure_by_squaring");
  }
}

// --- every tier, every kind ---------------------------------------------

/// Restores the ambient dispatch tier on scope exit.
class TierGuard {
 public:
  TierGuard() : saved_(simd::active_tier()) {}
  ~TierGuard() { simd::force_tier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier saved_;
};

std::vector<simd::Tier> runnable_tiers() {
  std::vector<simd::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
    tiers.push_back(static_cast<simd::Tier>(t));
  }
  return tiers;
}

/// Random matrix over S: entries from_weight(w) with probability
/// `density`, w an integer in [1, 20] or a real in [0.25, 8).
template <Semiring S>
Matrix<S> random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                        double density, bool integer_weights) {
  Matrix<S> m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (!rng.next_bool(density)) continue;
      m.at(i, j) = S::from_weight(integer_weights
                                      ? static_cast<double>(rng.next_int(1, 20))
                                      : rng.next_double(0.25, 8.0));
    }
  }
  return m;
}

template <typename S>
class TierParity : public ::testing::Test {};
using AllSemirings =
    ::testing::Types<TropicalD, TropicalI, BooleanSR, BottleneckSR>;
TYPED_TEST_SUITE(TierParity, AllSemirings);

TYPED_TEST(TierParity, MultiplyEveryDimensionEveryTier) {
  using S = TypeParam;
  TierGuard guard;
  Rng rng(31);
  std::vector<std::array<std::size_t, 3>> shapes;
  for (std::size_t d = 1; d <= 130; ++d) {
    shapes.push_back({d, 1 + d % 9, 1 + (d * 7) % 23});
    shapes.push_back({1 + d % 11, d, 1 + (d * 5) % 19});
    shapes.push_back({1 + (d * 3) % 13, 1 + d % 7, d});
  }
  // The |B| x |S| x |S| and |B| x |S| x |B| products of a 9^3 grid's
  // nodes, and a product past kSerialKernelCells (one pool task per
  // tile).
  for (const auto& sh : {std::array<std::size_t, 3>{81, 45, 81},
                         {81, 45, 45}, {81, 25, 81}, {61, 25, 61},
                         {59, 15, 59}, {26, 9, 26}, {130, 70, 130}}) {
    shapes.push_back(sh);
  }
  for (const auto& sh : shapes) {
    SCOPED_TRACE(::testing::Message() << sh[0] << "x" << sh[1] << "x" << sh[2]);
    const auto a = random_matrix<S>(sh[0], sh[1], rng, 0.6, false);
    const auto b = random_matrix<S>(sh[1], sh[2], rng, 0.6, false);
    const Matrix<S> reference = multiply_reference(a, b);
    for (const simd::Tier t : runnable_tiers()) {
      simd::force_tier(t);
      Matrix<S> blocked;
      multiply_into(a, b, blocked);
      ASSERT_EQ(blocked, reference) << simd::tier_name(t);
      if constexpr (std::is_same_v<typename S::Value, double>) {
        expect_bit_identical(blocked, reference, simd::tier_name(t));
      }
    }
  }
}

TYPED_TEST(TierParity, FloydWarshallEveryTier) {
  using S = TypeParam;
  TierGuard guard;
  Rng rng(32);
  for (const std::size_t n : {1u, 15u, 45u, 63u, 64u, 65u, 81u, 128u, 130u}) {
    // Integer weights keep multi-tile re-association exact; up to one
    // tile the blocked kernel is the reference loop, so real weights are
    // bit-exact too.
    for (const bool integer_weights : {true, false}) {
      if (!integer_weights && n > kKernelTile) continue;
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " integer=" << integer_weights);
      const auto input = random_matrix<S>(n, n, rng, 0.2, integer_weights);
      const Matrix<S> reference = floyd_warshall_reference(input);
      for (const simd::Tier t : runnable_tiers()) {
        simd::force_tier(t);
        Matrix<S> blocked = input;
        floyd_warshall(blocked);
        expect_bit_identical(blocked, reference, simd::tier_name(t));
      }
    }
  }
}

// --- the stride contract ------------------------------------------------

/// Checks `got` against the reference result `want` under Matrix's
/// stride contract: every row(i) is 64-byte aligned, its cols() real
/// cells memcmp-equal want's, and every padding cell out to ld() is
/// bit-equal to zero().
template <Semiring S>
void expect_stride_contract(const Matrix<S>& got, const Matrix<S>& want,
                            const char* what) {
  using Value = typename S::Value;
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ASSERT_EQ(got.ld(), padded_size<Value>(got.cols())) << what;
  const Value zero = S::zero();
  for (std::size_t i = 0; i < got.rows(); ++i) {
    const Value* row = got.row(i);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row) % kSimdAlign, 0u)
        << what << " row " << i;
    EXPECT_EQ(std::memcmp(row, want.row(i), got.cols() * sizeof(Value)), 0)
        << what << " row " << i;
    for (std::size_t j = got.cols(); j < got.ld(); ++j) {
      EXPECT_EQ(std::memcmp(&row[j], &zero, sizeof(Value)), 0)
          << what << " padding cell (" << i << "," << j << ")";
    }
  }
}

template <typename S>
class StrideContract : public ::testing::Test {};
TYPED_TEST_SUITE(StrideContract, AllSemirings);

TYPED_TEST(StrideContract, KernelsKeepPaddingZeroAndRowsAligned) {
  using S = TypeParam;
  TierGuard guard;
  Rng rng(41);
  std::vector<std::array<std::size_t, 3>> shapes;
  for (const std::size_t n :
       {1u, 5u, 7u, 9u, 17u, 25u, 45u, 61u, 63u, 64u, 65u, 81u, 96u, 130u}) {
    shapes.push_back({n, n, n});
  }
  // The 3-limited products of a 9^3 grid's nodes: |B| x |S| · |S| x |B|.
  for (const auto& sh : {std::array<std::size_t, 3>{81, 45, 81},
                         {81, 25, 81}, {61, 25, 61}}) {
    shapes.push_back(sh);
  }
  for (const auto& [rows, mid, cols] : shapes) {
    SCOPED_TRACE(::testing::Message() << rows << "x" << mid << "x" << cols);
    const auto a = random_matrix<S>(rows, mid, rng, 0.5, false);
    const auto b = random_matrix<S>(mid, cols, rng, 0.5, false);
    const Matrix<S> want_product = multiply_reference(a, b);
    const bool square = rows == mid && mid == cols;
    // Floyd–Warshall on integer weights (multi-tile re-association).
    const auto fw_input = random_matrix<S>(rows, rows, rng, 0.2, true);
    const Matrix<S> want_fw = floyd_warshall_reference(fw_input);
    Matrix<S> want_square = a;
    if (square) square_step_reference(want_square);
    const Matrix<S> want_closure =
        square ? closure_by_squaring_reference(a) : Matrix<S>();
    for (const simd::Tier t : runnable_tiers()) {
      simd::force_tier(t);
      SCOPED_TRACE(simd::tier_name(t));
      Matrix<S> product;
      multiply_into(a, b, product);
      expect_stride_contract(product, want_product, "multiply_into");
      Matrix<S> fw = fw_input;
      floyd_warshall(fw);
      expect_stride_contract(fw, want_fw, "floyd_warshall");
      if (!square) continue;
      Matrix<S> stepped = a;
      Matrix<S> scratch;
      square_step(stepped, scratch);
      expect_stride_contract(stepped, want_square, "square_step");
      Matrix<S> closed = a;
      closure_by_squaring_inplace(closed, scratch);
      expect_stride_contract(closed, want_closure,
                             "closure_by_squaring_inplace");
    }
  }
}

TEST(StrideContract, RowsAreNotPadded) {
  // A leaf-sized Boolean matrix pads its 5 columns to one 64-byte line
  // per row, and keeps 5 rows.
  Matrix<BooleanSR> m(5);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.ld(), 64u);
  EXPECT_EQ(m.row(4) - m.row(0), 4 * 64);
  floyd_warshall(m);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.ld(), 64u);
}

TEST(KernelParity, TropicalINegativeCycleSaturatesAtFloor) {
  // A negative cycle through every vertex: Floyd–Warshall cells can
  // double per pivot, so without the -kInf floor they overflow long long
  // (undefined behaviour; the sanitizer job runs this test). With it,
  // the closure reports a negative diagonal and stays in range.
  constexpr long long kInf = TropicalI::kInf;
  EXPECT_EQ(TropicalI::extend(-kInf, -kInf), -kInf);
  EXPECT_EQ(TropicalI::extend(-kInf, kInf), kInf);
  EXPECT_EQ(TropicalI::extend_unguarded(-kInf, -1), -kInf);
  EXPECT_EQ(TropicalI::extend(-kInf + 5, -4), -kInf + 1);
  TierGuard guard;
  for (const std::size_t n : {15u, 65u, 130u}) {
    SCOPED_TRACE(n);
    Matrix<TropicalI> input(n);
    for (std::size_t i = 0; i < n; ++i) {
      input.at(i, (i + 1) % n) = -(kInf / 4);
      input.at(i, (i + 7) % n) = 3;
    }
    const Matrix<TropicalI> reference = floyd_warshall_reference(input);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(reference.at(i, i), 0) << "row " << i;
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_GE(reference.at(i, j), -kInf);
        EXPECT_LE(reference.at(i, j), kInf);
      }
    }
    EXPECT_EQ(reference.at(0, 0), -kInf);
    for (const simd::Tier t : runnable_tiers()) {
      simd::force_tier(t);
      Matrix<TropicalI> blocked = input;
      floyd_warshall(blocked);
      EXPECT_EQ(blocked, reference) << simd::tier_name(t);
    }
  }
}

/// End-to-end: both builders, both closure kernels, the ambient tier
/// vs the scalar tier, on a 17x17 grid — shortcut sets, weights
/// (bit-compared), and cost-model charges must all agree.
template <typename BuildFn>
void check_build_parity(const BuildFn& build) {
  TierGuard guard;
  const auto ambient = build();
  simd::force_tier(simd::Tier::kScalar);
  const auto scalar = build();
  ASSERT_EQ(ambient.augmentation().plan, scalar.augmentation().plan);
  const EdgeBucket<TropicalD>& a = ambient.shortcut_edges();
  const EdgeBucket<TropicalD>& b = scalar.shortcut_edges();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value(i)),
              std::bit_cast<std::uint64_t>(b.value(i)))
        << "shortcut " << i;
  }
  EXPECT_EQ(ambient.augmentation().build_cost.work,
            scalar.augmentation().build_cost.work);
  EXPECT_EQ(ambient.augmentation().critical_depth,
            scalar.augmentation().critical_depth);
}

TEST(KernelParity, EndToEndAugmentation) {
  Rng rng(21);
  const auto gg = make_grid({17, 17}, WeightModel::uniform(1, 10), rng);
  const auto tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({17, 17}));
  check_build_parity([&] {
    return build_augmentation_recursive<TropicalD>(gg.graph, tree,
                                                   ClosureKind::kSquaring);
  });
  check_build_parity([&] {
    return build_augmentation_recursive<TropicalD>(
        gg.graph, tree, ClosureKind::kFloydWarshall);
  });
  check_build_parity(
      [&] { return build_augmentation_doubling<TropicalD>(gg.graph, tree); });
}

}  // namespace
}  // namespace sepsp
