// Difference-constraint systems on top of the separator engine.
//
// The paper's application (Section 1): systems of linear inequalities
// with two variables per inequality solve faster when the underlying
// constraint graph has a separator decomposition, because the Cohen–
// Megiddo machinery spends its time in an all-pairs shortest-path
// oracle. This module implements the difference special case end to end
// (DESIGN.md substitution 5): constraints  x_j - x_i <= c  map to arcs
// i -> j of weight c; the system is feasible iff the graph has no
// negative cycle, and x = (distances from a virtual source) is a
// solution. The virtual source is realized as a multi-source engine run,
// which keeps the constraint graph — and hence its separator
// decomposition — unmodified.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "graph/digraph.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

/// One constraint: x[j] - x[i] <= c.
struct DifferenceConstraint {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  double c = 0;
};

/// Solver outcome.
struct DifferenceSolution {
  bool feasible = false;
  /// A satisfying assignment when feasible (empty otherwise).
  std::vector<double> x;
  /// When infeasible: the variable indices of a negative-weight
  /// constraint cycle (a certificate: summing its constraints yields
  /// 0 <= negative).
  std::vector<std::uint32_t> certificate;
};

/// A system over `num_variables` variables.
class DifferenceSystem {
 public:
  explicit DifferenceSystem(std::size_t num_variables)
      : num_variables_(num_variables) {}

  void add(std::uint32_t i, std::uint32_t j, double c) {
    SEPSP_CHECK(i < num_variables_ && j < num_variables_);
    constraints_.push_back({i, j, c});
  }

  std::size_t num_variables() const { return num_variables_; }
  std::size_t num_constraints() const { return constraints_.size(); }

  /// The constraint graph (arc i -> j of weight c per constraint).
  Digraph constraint_graph() const;

  /// Solves using the separator engine: builds (or accepts) a
  /// decomposition of the constraint graph, preprocesses E+, runs one
  /// multi-source query. The engine path is what the paper's bound
  /// O(n^{1+2mu} + mn) refers to.
  DifferenceSolution solve(const SeparatorTree* tree = nullptr) const;

  /// Reference solver (Bellman–Ford with an explicit virtual source);
  /// used by tests to cross-check the engine path.
  DifferenceSolution solve_reference() const;

 private:
  DifferenceSolution extract_certificate(const Digraph& g) const;

  std::size_t num_variables_;
  std::vector<DifferenceConstraint> constraints_;
};

}  // namespace sepsp
