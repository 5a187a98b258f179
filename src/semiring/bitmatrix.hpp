// Packed Boolean matrices: 64 adjacency bits per machine word.
//
// The dense reachability baseline (baseline/reach.hpp's
// transitive_closure_dense) squares n x n adjacency matrices of this
// type: the n-sized M(n) product the paper's separator engine avoids.
// The engine itself computes reachability as Algorithm 4.1 over
// BooleanSR on the generic semiring kernels, so its separator-sized
// products are charged per cell while this baseline is charged per
// 64-bit word — a comparison that favours the baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace sepsp {

/// Row-major rows x cols bit matrix.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols);
  explicit BitMatrix(std::size_t n) : BitMatrix(n, n) {}

  static BitMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool is_square() const { return rows_ == cols_; }

  bool get(std::size_t i, std::size_t j) const {
    SEPSP_DCHECK(i < rows_ && j < cols_);
    return (words_[i * words_per_row_ + j / 64] >> (j % 64)) & 1u;
  }

  void set(std::size_t i, std::size_t j, bool value = true) {
    SEPSP_DCHECK(i < rows_ && j < cols_);
    const std::uint64_t bit = 1ULL << (j % 64);
    std::uint64_t& word = words_[i * words_per_row_ + j / 64];
    if (value) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }

  /// this |= rhs (elementwise; same shape).
  void merge(const BitMatrix& rhs);

  /// Boolean product this (x) rhs (cols() must equal rhs.rows()).
  /// O(rows * cols * rhs.cols/64) word operations, charged as such to the
  /// cost model with log depth.
  BitMatrix multiply(const BitMatrix& rhs) const;

  /// this = this | this (x) this; returns true if any bit was added.
  /// Square only.
  bool square_step();

  /// Reflexive-transitive closure by repeated squaring. Square only.
  BitMatrix closure() const;

  /// Number of set bits.
  std::size_t popcount() const;

  /// Releases storage.
  void clear();

  bool operator==(const BitMatrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace sepsp
