// Dense matrices over a semiring, with the kernels the paper's builders
// need:
//   * semiring matrix product, rectangular (the B x S / S x B three-hop
//     composition of Algorithm 4.1 and the "path doubling" step of
//     Algorithm 4.3)
//   * Floyd–Warshall closure (sequential-in-k baseline kernel)
//   * repeated squaring closure (polylog-depth APSP; also the NC
//     all-pairs baseline whose O(n^3) work is the transitive-closure
//     bottleneck the paper attacks)
//
// The public kernels are blocked into kKernelTile square tiles, each
// tile one dispatched SIMD kernel call (semiring/simd.hpp: simd::product
// per output tile, simd::fw_panel per Floyd–Warshall k-panel). Kernels
// below kSerialKernelCells cell updates run on the calling thread;
// larger ones run one pool task per tile (so a single large closure —
// e.g. the root separator clique — parallelizes even when it is the
// only node at its tree level). The element-at-a-time reference kernels
// (detail::multiply_reference_into, detail::floyd_warshall_reference)
// are the oracle that the parity suite (tests/test_kernels.cpp) and the
// naive-vs-blocked rows of bench_x_kernels call directly; blocked and
// reference kernels produce bit-identical results (identical combine
// order per cell for multiply/square; identical values for
// Floyd–Warshall, where cross-tile association of float sums is
// exercised with exact integer weights — see docs/ALGORITHMS.md
// "Execution substrate & kernel blocking").
//
// Storage. Rows are ld() values apart, ld() being cols() rounded up to
// a whole 64-byte line of values, on 64-byte-aligned storage
// (util/aligned.hpp's AlignedVector), and every padding cell holds
// zero(). The blocked kernels run column ranges that reach the last
// real column on to ld(), so no row step or product strip ends in a
// ragged vector tail or splits a line; zero() absorbs under extend and
// is neutral under combine in all four shipped semirings, so padding
// stays zero() and the real cells are the ones the packed layout gave,
// bit for bit. The k and i ranges stay at the real size, and rows are
// not padded.
//
// All kernels charge the PRAM cost model exactly as the reference
// versions do: work = cell updates, depth = phases (a product counts as
// one round of depth ceil(log2 k) combining; Floyd–Warshall charges its
// honest sequential-k depth). Blocking changes the schedule, not the
// model.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "pram/cost_model.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/semiring.hpp"
#include "semiring/simd.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace sepsp {

using simd::kKernelTile;

/// Kernels with fewer cell updates than this run as direct kernel calls
/// on the calling thread: below it a pool fork costs more than it saves.
/// A probe that split fw_panel's phases across two participants (row
/// panel by column chunk, column panel by row chunk, interior in 8-row
/// strips) took the aligned 81-wide closure from 68 to 92 us and the
/// 96-wide one from 99.5 to 108 us; only products gained (81x45x81:
/// 27.2 -> 22.1 us). EXPERIMENTS.md note 13.
inline constexpr std::size_t kSerialKernelCells = std::size_t{1} << 20;

/// Row-major rows x cols matrix of semiring values, initialized to
/// zero() ("no path"), its rows ld() values apart on 64-byte-aligned
/// storage, padding cells zero() (see "Storage" above). Rows are not
/// padded: a 5 x 5 BooleanSR matrix holds 5 rows of 64 bytes.
template <Semiring S>
class Matrix {
 public:
  using Value = typename S::Value;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) { reset(rows, cols); }
  explicit Matrix(std::size_t n) : Matrix(n, n) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = S::one();
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Row stride in values: cols() rounded up to whole 64-byte lines.
  std::size_t ld() const { return ld_; }
  bool is_square() const { return rows_ == cols_; }

  Value& at(std::size_t i, std::size_t j) {
    SEPSP_DCHECK(i < rows_ && j < cols_);
    return cells_[i * ld_ + j];
  }
  const Value& at(std::size_t i, std::size_t j) const {
    SEPSP_DCHECK(i < rows_ && j < cols_);
    return cells_[i * ld_ + j];
  }

  /// Flat row pointers for the blocked kernels (no per-cell checks):
  /// cols() real cells, then zero() padding out to ld().
  Value* row(std::size_t i) { return cells_.data() + i * ld_; }
  const Value* row(std::size_t i) const { return cells_.data() + i * ld_; }

  /// combine-assign: at(i,j) = combine(at(i,j), v).
  void merge(std::size_t i, std::size_t j, Value v) {
    Value& cell = at(i, j);
    cell = S::combine(cell, v);
  }

  /// Re-shapes to rows x cols of zero(), reusing the existing storage —
  /// the scratch-arena path of the builders: no allocation once the
  /// buffer has grown to the high-water mark.
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    ld_ = padded_size<Value>(cols);
    cells_.assign(rows * ld_, S::zero());
  }
  void reset(std::size_t n) { reset(n, n); }

  bool operator==(const Matrix& rhs) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
  AlignedVector<Value> cells_;
};

namespace detail {

#if SEPSP_OBS_ENABLED
// Kernel observability, charged once per kernel call (never per cell):
// tile tasks executed and cell updates issued. bench_x_kernels derives
// cells/sec from the latter.
struct KernelObs {
  obs::Counter& tiles = obs::counter("kernel.tiles");
  obs::Counter& cells = obs::counter("kernel.cells");
  obs::Counter& vcells = obs::counter("simd.cells");
  static KernelObs& get() {
    static KernelObs o;
    return o;
  }
};
#endif

inline std::size_t tiles_of(std::size_t n) {
  return (n + kKernelTile - 1) / kKernelTile;
}

/// Reference product, accumulated into `out`: the seed's
/// element-at-a-time loop, serial. The parity oracle and the bench
/// baseline; no public kernel calls it.
template <Semiring S>
void multiply_reference_into(const Matrix<S>& a, const Matrix<S>& b,
                             Matrix<S>& out) {
  const std::size_t rows = a.rows();
  const std::size_t mid = a.cols();
  const std::size_t cols = b.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < mid; ++k) {
      const auto aik = a.at(i, k);
      if (!S::improves(S::zero(), aik)) continue;  // aik == zero: skip
      for (std::size_t j = 0; j < cols; ++j) {
        out.merge(i, j, S::extend(aik, b.at(k, j)));
      }
    }
  }
}

/// Blocked product: one simd::product call per 64x64 output tile, over
/// the whole k range (k ascending for every output cell, exactly the
/// reference's combine order -> bit-identical), or a single call for a
/// product below kSerialKernelCells. The last column tile runs out to
/// ld(): a padding column of b is zero(), so its output stays zero().
template <Semiring S>
void multiply_blocked_into(const Matrix<S>& a, const Matrix<S>& b,
                           Matrix<S>& out) {
  const std::size_t rows = a.rows();
  const std::size_t mid = a.cols();
  const std::size_t cols = b.cols();
  const std::size_t ld = out.ld();
  constexpr std::size_t T = kKernelTile;
  const std::size_t row_tiles = tiles_of(rows);
  const std::size_t col_tiles = tiles_of(cols);
  SEPSP_OBS_ONLY(
      KernelObs::get().tiles.add(row_tiles * col_tiles * tiles_of(mid));)
  if (rows * mid * cols < kSerialKernelCells) {
    simd::product<S>(out.row(0), ld, a.row(0), a.ld(), b.row(0), b.ld(), rows,
                     mid, ld);
    return;
  }
  pram::ThreadPool::global().parallel_for(
      0, row_tiles * col_tiles,
      [&](std::size_t tile) {
        const std::size_t i0 = (tile / col_tiles) * T;
        const std::size_t j0 = (tile % col_tiles) * T;
        const std::size_t j1 = std::min(cols, j0 + T);
        simd::product<S>(out.row(i0) + j0, ld, a.row(i0), a.ld(),
                         b.row(0) + j0, b.ld(), std::min(T, rows - i0), mid,
                         simd::column_end(j1, cols, ld) - j0);
      },
      /*grain=*/1);
}

/// Reference closure: the seed's sequential-in-k loop, serial over rows.
/// The parity oracle and the bench baseline, as above.
template <Semiring S>
void floyd_warshall_reference(Matrix<S>& m) {
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) m.merge(i, i, S::one());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto mik = m.at(i, k);
      if (!S::improves(S::zero(), mik)) continue;
      for (std::size_t j = 0; j < n; ++j) {
        m.merge(i, j, S::extend(mik, m.at(k, j)));
      }
    }
  }
}

/// Blocked closure: the classic three-phase tiling. Per k-panel, one
/// simd::fw_panel call closes the diagonal tile (it carries the
/// in-panel dependency), then the row and column panels (each reads
/// only itself and the closed diagonal); then every interior tile is
/// one simd::product of its column-panel and row-panel tiles (each
/// reads only the finished panels). Matrices that fit one tile take the
/// diagonal phase only, which IS the reference loop. The k and i ranges
/// are the real n; column ranges that reach column n run on to ld().
template <Semiring S>
void floyd_warshall_blocked(Matrix<S>& m) {
  const std::size_t n = m.rows();
  const std::size_t ld = m.ld();
  for (std::size_t i = 0; i < n; ++i) m.merge(i, i, S::one());
  constexpr std::size_t T = kKernelTile;
  const std::size_t nt = tiles_of(n);
  auto lo = [&](std::size_t t) { return t * T; };
  auto hi = [&](std::size_t t) { return std::min(n, t * T + T); };
  for (std::size_t kt = 0; kt < nt; ++kt) {
    const std::size_t k0 = lo(kt), k1 = hi(kt);
    simd::fw_panel<S>(m.row(0), ld, n, ld, k0, k1);
    if (nt == 1) break;
    // Interior tiles, all independent of each other.
    const auto interior = [&](std::size_t x) {
      std::size_t it = x / (nt - 1);
      std::size_t jt = x % (nt - 1);
      if (it >= kt) ++it;
      if (jt >= kt) ++jt;
      simd::product<S>(m.row(lo(it)) + lo(jt), ld, m.row(lo(it)) + k0, ld,
                       m.row(k0) + lo(jt), ld, hi(it) - lo(it), k1 - k0,
                       simd::column_end(hi(jt), n, ld) - lo(jt));
    };
    const std::size_t interior_tiles = (nt - 1) * (nt - 1);
    if (n * n * n < kSerialKernelCells) {
      for (std::size_t x = 0; x < interior_tiles; ++x) interior(x);
    } else {
      pram::ThreadPool::global().parallel_for(0, interior_tiles, interior,
                                              /*grain=*/1);
    }
  }
  SEPSP_OBS_ONLY(detail::KernelObs::get().tiles.add(nt * nt * nt);)
}

}  // namespace detail

/// Semiring product a (x) b into `out` (re-shaped, storage reused); the
/// allocation-free spelling the builders' scratch arenas use.
/// O(rows * k * cols) work, depth ceil(log2 k) + 1 (EREW combining tree).
template <Semiring S>
void multiply_into(const Matrix<S>& a, const Matrix<S>& b, Matrix<S>& out) {
  SEPSP_CHECK(a.cols() == b.rows());
  out.reset(a.rows(), b.cols());
  detail::multiply_blocked_into(a, b, out);
  pram::CostMeter::charge_work(a.rows() * a.cols() * b.cols());
  pram::CostMeter::charge_depth(std::bit_width(a.cols()) + 1);
  SEPSP_OBS_ONLY({
    const std::size_t cells = a.rows() * a.cols() * b.cols();
    detail::KernelObs::get().cells.add(cells);
    if (simd::vector_dispatch_active<S>()) {
      detail::KernelObs::get().vcells.add(cells);
    }
  })
}

/// Semiring product a (x) b; a.cols() must equal b.rows().
template <Semiring S>
Matrix<S> multiply(const Matrix<S>& a, const Matrix<S>& b) {
  Matrix<S> result;
  multiply_into(a, b, result);
  return result;
}

/// In-place "path doubling" squaring step: M = combine(M, M (x) M),
/// with the product written into `scratch` (reused across calls — the
/// builders' doubling loop runs allocation-free at steady state) and
/// change detection fused into the combine pass.
/// Returns true if any cell changed (fixpoint detector).
template <Semiring S>
bool square_step(Matrix<S>& m, Matrix<S>& scratch) {
  SEPSP_CHECK(m.is_square());
  multiply_into(m, m, scratch);
  const std::size_t n = m.rows();
  std::atomic<bool> changed{false};
  pram::ThreadPool::global().parallel_blocks(
      0, n, [&](std::size_t lo, std::size_t hi) {
        bool local = false;
        for (std::size_t i = lo; i < hi; ++i) {
          if (simd::combine_row<S>(m.row(i), scratch.row(i), m.ld())) {
            local = true;
          }
        }
        if (local) changed.store(true, std::memory_order_relaxed);
      });
  pram::CostMeter::charge_work(n * n);
  pram::CostMeter::charge_depth(1);
  SEPSP_OBS_ONLY(if (simd::vector_dispatch_active<S>()) {
    detail::KernelObs::get().vcells.add(n * n);
  })
  return changed.load(std::memory_order_relaxed);
}

/// Convenience overload allocating its own scratch.
template <Semiring S>
bool square_step(Matrix<S>& m) {
  Matrix<S> scratch;
  return square_step(m, scratch);
}

/// Floyd–Warshall closure in place: at(i,j) becomes the best path value
/// from i to j through any intermediates. With S = TropicalD this is
/// APSP; diagonal cells below one() certify negative cycles.
/// O(n^3) work, depth n (sequential in k, tiles parallel per k-panel).
template <Semiring S>
void floyd_warshall(Matrix<S>& m) {
  SEPSP_CHECK(m.is_square());
  const std::size_t n = m.rows();
  detail::floyd_warshall_blocked(m);
  pram::CostMeter::charge_work(n * n * n);
  pram::CostMeter::charge_depth(n);
  SEPSP_OBS_ONLY(if (simd::vector_dispatch_active<S>()) {
    detail::KernelObs::get().vcells.add(n * n * n);
  })
}

/// Closure by repeated squaring: at most ceil(log2(n-1)) squarings (or
/// until fixpoint). Polylog depth; the extra log factor of work is the
/// one in the paper's n^{3 mu} log n preprocessing bound. `scratch`
/// backs the squaring products (reused across the steps and, via the
/// builders' arenas, across tree nodes).
template <Semiring S>
void closure_by_squaring_inplace(Matrix<S>& m, Matrix<S>& scratch) {
  SEPSP_CHECK(m.is_square());
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) m.merge(i, i, S::one());
  if (n <= 2) return;
  const std::size_t steps = std::bit_width(n - 2);  // ceil(log2(n-1))
  for (std::size_t s = 0; s < steps; ++s) {
    if (!square_step(m, scratch)) break;
  }
}

template <Semiring S>
Matrix<S> closure_by_squaring(Matrix<S> m) {
  Matrix<S> scratch;
  closure_by_squaring_inplace(m, scratch);
  return m;
}

}  // namespace sepsp
