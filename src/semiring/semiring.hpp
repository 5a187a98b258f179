// Path-algebra semirings.
//
// The paper (remark iii) notes the algorithm applies to general path
// problems over semirings; the core library is therefore templated on a
// `Semiring` policy providing:
//   Value            — element type
//   zero()           — identity of combine(); the "no path" value
//   one()            — identity of extend(); the "empty path" value
//   combine(a, b)    — choice among paths (min / or / max)
//   extend(a, b)     — path concatenation (+ / and / min)
//   improves(a, b)   — true iff combine(a, b) != a, i.e. b strictly
//                      betters a (drives relaxation convergence checks)
//   from_weight(w)   — maps a stored edge weight (double) into Value
//
// All instances here are idempotent (combine(a, a) == a), which is what
// Bellman–Ford-style relaxation and Floyd–Warshall require.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>

namespace sepsp {

template <typename S>
concept Semiring = requires(typename S::Value a, typename S::Value b,
                            double w) {
  { S::zero() } -> std::same_as<typename S::Value>;
  { S::one() } -> std::same_as<typename S::Value>;
  { S::combine(a, b) } -> std::same_as<typename S::Value>;
  { S::extend(a, b) } -> std::same_as<typename S::Value>;
  { S::improves(a, b) } -> std::same_as<bool>;
  { S::from_weight(w) } -> std::same_as<typename S::Value>;
};

/// Min-plus ("tropical") semiring over doubles: shortest paths with
/// real-valued (possibly negative) weights. zero = +infinity.
struct TropicalD {
  using Value = double;
  static constexpr Value zero() {
    return std::numeric_limits<double>::infinity();
  }
  static constexpr Value one() { return 0.0; }
  static constexpr Value combine(Value a, Value b) { return a < b ? a : b; }
  static constexpr Value extend(Value a, Value b) {
    // +inf absorbs: avoids inf + (-inf) pitfalls (we never produce -inf).
    if (a == zero() || b == zero()) return zero();
    return a + b;
  }
  static constexpr bool improves(Value current, Value candidate) {
    return candidate < current;
  }
  /// extend() without the no-path guard: IEEE inf + finite = inf, and
  /// we never produce -inf, so it equals extend() for every value a
  /// relaxation sees, a zero() edge value included. Branch-free, so
  /// multi-lane relaxation loops vectorize.
  static constexpr Value extend_unguarded(Value a, Value b) { return a + b; }
  static constexpr Value from_weight(double w) { return w; }
  /// Relaxation can cycle indefinitely when negative cycles exist.
  static constexpr bool kDetectNegativeCycles = true;
  /// Tolerant improvement test for the negative-cycle probe: different
  /// summation orders of the same optimal path can differ by rounding, so
  /// only an improvement beyond relative epsilon certifies a cycle.
  static bool detect_improves(Value current, Value candidate) {
    if (current == zero()) return candidate < current;
    const double scale =
        std::max({1.0, current < 0 ? -current : current,
                  candidate < 0 ? -candidate : candidate});
    return candidate < current - 1e-7 * scale;
  }
};

/// Min-plus semiring over 64-bit integers; edge weights are rounded.
/// Useful for exact equality tests. Sums saturate: at kInf ("no path")
/// above and at -kInf below, so values stay in [-kInf, kInf] and a
/// closure over a negative cycle (whose cells can double per pivot)
/// bottoms out at -kInf instead of overflowing.
struct TropicalI {
  using Value = long long;
  static constexpr Value kInf = (1LL << 60);
  static constexpr Value zero() { return kInf; }
  static constexpr Value one() { return 0; }
  static constexpr Value combine(Value a, Value b) { return a < b ? a : b; }
  static constexpr Value extend(Value a, Value b) {
    if (a >= kInf || b >= kInf) return kInf;
    return floored(a + b);
  }
  static constexpr bool improves(Value current, Value candidate) {
    return candidate < current;
  }
  /// extend() for relaxation loops: dist values are either exact
  /// (< kInf) or exactly kInf, so one select per side saturates (kInf +
  /// negative b must not look reachable, nor negative a + a kInf edge).
  static constexpr Value extend_unguarded(Value a, Value b) {
    return a == kInf || b == kInf ? kInf : floored(a + b);
  }
  /// The -kInf floor of a sum of two values in [-kInf, kInf].
  static constexpr Value floored(Value sum) {
    return sum < -kInf ? -kInf : sum;
  }
  static Value from_weight(double w) { return static_cast<Value>(w); }
  static constexpr bool kDetectNegativeCycles = true;
  /// Integer arithmetic is exact: any improvement certifies a cycle.
  static constexpr bool detect_improves(Value current, Value candidate) {
    return candidate < current;
  }
};

/// Boolean (or-and) semiring: reachability / transitive closure.
/// Value is uint8_t (0/1) rather than bool so that matrices can hand out
/// references (std::vector<bool> is a proxy type).
struct BooleanSR {
  using Value = std::uint8_t;
  static constexpr Value zero() { return 0; }
  static constexpr Value one() { return 1; }
  static constexpr Value combine(Value a, Value b) { return a | b; }
  static constexpr Value extend(Value a, Value b) { return a & b; }
  static constexpr bool improves(Value current, Value candidate) {
    return candidate != 0 && current == 0;
  }
  static constexpr Value from_weight(double) { return 1; }
  static constexpr bool kDetectNegativeCycles = false;
};

/// Bottleneck (max-min) semiring: widest paths. Edge weights are
/// capacities; a path's value is its narrowest edge; among paths we take
/// the widest. zero = -infinity ("no path"), one = +infinity.
struct BottleneckSR {
  using Value = double;
  static constexpr Value zero() {
    return -std::numeric_limits<double>::infinity();
  }
  static constexpr Value one() {
    return std::numeric_limits<double>::infinity();
  }
  static constexpr Value combine(Value a, Value b) { return a > b ? a : b; }
  static constexpr Value extend(Value a, Value b) { return a < b ? a : b; }
  static constexpr bool improves(Value current, Value candidate) {
    return candidate > current;
  }
  static constexpr Value from_weight(double w) { return w; }
  static constexpr bool kDetectNegativeCycles = false;
};

static_assert(Semiring<TropicalD>);
static_assert(Semiring<TropicalI>);
static_assert(Semiring<BooleanSR>);
static_assert(Semiring<BottleneckSR>);

/// True when S ships a branch-free extend_unguarded() specialization.
template <typename S>
concept HasUnguardedExtend = requires(typename S::Value a, typename S::Value b) {
  { S::extend_unguarded(a, b) } -> std::same_as<typename S::Value>;
};

/// extend() for relaxation hot loops: selects the semiring's branch-free
/// extend_unguarded() when it exists, else the guarded extend().
/// Bit-identical to extend() for every pair of values a relaxation or a
/// hub-label merge can hold, zero() on either side included (buckets
/// keep zero() "no path" slots; labels hold zero() for disconnected
/// pairs); test_semiring enforces the equivalence. This is the single
/// home of the guarded/unguarded selection shared by the scalar,
/// lane-batched, and SIMD kernels — do not re-derive it at call sites.
template <Semiring S>
constexpr typename S::Value relax_extend(typename S::Value a,
                                         typename S::Value b) {
  if constexpr (HasUnguardedExtend<S>) {
    return S::extend_unguarded(a, b);
  } else {
    return S::extend(a, b);
  }
}

}  // namespace sepsp
