// Semiring-law tests (typed over all shipped semirings) and dense
// matrix kernel tests against brute-force references.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "semiring/matrix.hpp"
#include "semiring/semiring.hpp"
#include "util/random.hpp"

namespace sepsp {
namespace {

template <typename S>
class SemiringLaws : public ::testing::Test {
 public:
  // A small pool of representative values per semiring.
  static std::vector<typename S::Value> values() {
    if constexpr (std::is_same_v<S, BooleanSR>) {
      return {0, 1};
    } else {
      return {S::zero(), S::one(), S::from_weight(1.5), S::from_weight(7.0),
              S::from_weight(3.0)};
    }
  }
};

using AllSemirings =
    ::testing::Types<TropicalD, TropicalI, BooleanSR, BottleneckSR>;
TYPED_TEST_SUITE(SemiringLaws, AllSemirings);

TYPED_TEST(SemiringLaws, CombineIsCommutativeAssociativeIdempotent) {
  using S = TypeParam;
  for (const auto a : this->values()) {
    EXPECT_EQ(S::combine(a, a), a);  // idempotent
    for (const auto b : this->values()) {
      EXPECT_EQ(S::combine(a, b), S::combine(b, a));
      for (const auto c : this->values()) {
        EXPECT_EQ(S::combine(S::combine(a, b), c),
                  S::combine(a, S::combine(b, c)));
      }
    }
  }
}

TYPED_TEST(SemiringLaws, Identities) {
  using S = TypeParam;
  for (const auto a : this->values()) {
    EXPECT_EQ(S::combine(a, S::zero()), a);
    EXPECT_EQ(S::extend(a, S::one()), a);
    EXPECT_EQ(S::extend(S::one(), a), a);
    EXPECT_EQ(S::extend(a, S::zero()), S::zero());  // zero annihilates
    EXPECT_EQ(S::extend(S::zero(), a), S::zero());
  }
}

TYPED_TEST(SemiringLaws, ExtendAssociativeAndDistributive) {
  using S = TypeParam;
  for (const auto a : this->values()) {
    for (const auto b : this->values()) {
      for (const auto c : this->values()) {
        EXPECT_EQ(S::extend(S::extend(a, b), c), S::extend(a, S::extend(b, c)));
        EXPECT_EQ(S::extend(a, S::combine(b, c)),
                  S::combine(S::extend(a, b), S::extend(a, c)));
        EXPECT_EQ(S::extend(S::combine(b, c), a),
                  S::combine(S::extend(b, a), S::extend(c, a)));
      }
    }
  }
}

TYPED_TEST(SemiringLaws, ImprovesMatchesCombine) {
  using S = TypeParam;
  for (const auto a : this->values()) {
    for (const auto b : this->values()) {
      EXPECT_EQ(S::improves(a, b), S::combine(a, b) != a)
          << "improves must mean 'combine changes the value'";
    }
  }
}

TYPED_TEST(SemiringLaws, ExtendUnguardedAgreesWithExtend) {
  // The relaxation loops' and the hub-label merge's branch-free fast
  // path: whenever the semiring provides extend_unguarded, it must equal
  // extend for every pair of values, zero() on either side included
  // (buckets keep "no path" slots at zero(); labels hold zero() for
  // disconnected pairs).
  // Negative values are the dangerous case for saturating integer
  // arithmetic: a negative distance plus a kInf edge must stay kInf.
  using S = TypeParam;
  using V = typename S::Value;
  if constexpr (requires(V a, V b) { S::extend_unguarded(a, b); }) {
    auto values = this->values();
    if constexpr (std::is_same_v<S, TropicalD> || std::is_same_v<S, TropicalI>) {
      values.push_back(S::from_weight(-4.0));
    }
    for (const auto a : values) {
      for (const auto b : values) {
        EXPECT_EQ(S::extend_unguarded(a, b), S::extend(a, b))
            << "a, b must extend identically without the guard";
      }
    }
  }
}

// --- dense matrix kernels ---------------------------------------------

template <Semiring S>
Matrix<S> random_matrix(std::size_t n, Rng& rng, double density = 0.4) {
  Matrix<S> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_bool(density)) {
        m.at(i, j) = S::from_weight(rng.next_double(1.0, 9.0));
      }
    }
  }
  return m;
}

template <Semiring S>
Matrix<S> brute_multiply(const Matrix<S>& a, const Matrix<S>& b) {
  Matrix<S> r(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      auto acc = S::zero();
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc = S::combine(acc, S::extend(a.at(i, k), b.at(k, j)));
      }
      r.at(i, j) = acc;
    }
  }
  return r;
}

TEST(Matrix, MultiplyMatchesBruteForceTropical) {
  Rng rng(21);
  for (const std::size_t n : {1u, 2u, 5u, 13u}) {
    const auto a = random_matrix<TropicalD>(n, rng);
    const auto b = random_matrix<TropicalD>(n, rng);
    EXPECT_EQ(multiply(a, b), brute_multiply(a, b)) << "n=" << n;
  }
}

TEST(Matrix, MultiplyMatchesBruteForceBottleneck) {
  Rng rng(22);
  const auto a = random_matrix<BottleneckSR>(9, rng);
  const auto b = random_matrix<BottleneckSR>(9, rng);
  EXPECT_EQ(multiply(a, b), brute_multiply(a, b));
}

TEST(Matrix, RectangularMultiplyShapes) {
  Matrix<TropicalD> a(2, 3), b(3, 4);
  a.at(0, 1) = 1.0;
  b.at(1, 3) = 2.0;
  const auto c = multiply(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_DOUBLE_EQ(c.at(0, 3), 3.0);
  EXPECT_EQ(c.at(1, 0), TropicalD::zero());
}

TEST(Matrix, IdentityIsMultiplicativeIdentity) {
  Rng rng(23);
  const auto a = random_matrix<TropicalD>(7, rng);
  const auto id = Matrix<TropicalD>::identity(7);
  EXPECT_EQ(multiply(a, id), a);
  EXPECT_EQ(multiply(id, a), a);
}

TEST(Matrix, FloydWarshallEqualsSquaringClosure) {
  Rng rng(24);
  for (int trial = 0; trial < 5; ++trial) {
    auto m = random_matrix<TropicalD>(11, rng, 0.3);
    auto fw = m;
    floyd_warshall(fw);
    const auto sq = closure_by_squaring(m);
    for (std::size_t i = 0; i < 11; ++i) {
      for (std::size_t j = 0; j < 11; ++j) {
        if (std::isinf(fw.at(i, j))) {
          EXPECT_TRUE(std::isinf(sq.at(i, j)));
        } else {
          EXPECT_NEAR(fw.at(i, j), sq.at(i, j), 1e-12);
        }
      }
    }
  }
}

TEST(Matrix, FloydWarshallPathExample) {
  //  0 -> 1 (5), 1 -> 2 (2), 0 -> 2 (9): best 0->2 is 7 via 1.
  Matrix<TropicalD> m(3);
  m.at(0, 1) = 5;
  m.at(1, 2) = 2;
  m.at(0, 2) = 9;
  floyd_warshall(m);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_EQ(m.at(2, 0), TropicalD::zero());
}

TEST(Matrix, FloydWarshallFlagsNegativeCycleOnDiagonal) {
  Matrix<TropicalD> m(2);
  m.at(0, 1) = 1;
  m.at(1, 0) = -3;
  floyd_warshall(m);
  EXPECT_LT(m.at(0, 0), 0.0);
}

TEST(Matrix, SquareStepReportsFixpoint) {
  Matrix<TropicalD> m = Matrix<TropicalD>::identity(4);
  m.at(0, 1) = 1;
  EXPECT_FALSE(square_step(m));  // already transitively closed
  m.at(1, 2) = 1;
  EXPECT_TRUE(square_step(m));   // 0->2 appears
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
}

TEST(Matrix, BooleanClosureIsReachability) {
  // Path 0 -> 1 -> 2 -> 3.
  Matrix<BooleanSR> m(4);
  m.at(0, 1) = 1;
  m.at(1, 2) = 1;
  m.at(2, 3) = 1;
  const auto c = closure_by_squaring(m);
  EXPECT_EQ(c.at(0, 3), 1);
  EXPECT_EQ(c.at(3, 0), 0);
  EXPECT_EQ(c.at(2, 2), 1);  // reflexive
}

}  // namespace
}  // namespace sepsp
