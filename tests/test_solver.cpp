// Difference-constraint solver tests: feasible systems yield satisfying
// assignments, infeasible ones yield valid negative-cycle certificates,
// and the engine path agrees with the Bellman–Ford reference.
#include <gtest/gtest.h>

#include "separator/finders.hpp"
#include "solver/difference_constraints.hpp"
#include "util/random.hpp"

namespace sepsp {
namespace {

void expect_satisfies(const DifferenceSystem& sys,
                      const std::vector<DifferenceConstraint>& constraints,
                      const DifferenceSolution& sol) {
  ASSERT_TRUE(sol.feasible);
  ASSERT_EQ(sol.x.size(), sys.num_variables());
  for (const DifferenceConstraint& c : constraints) {
    EXPECT_LE(sol.x[c.j] - sol.x[c.i], c.c + 1e-9)
        << "x" << c.j << " - x" << c.i << " <= " << c.c;
  }
}

std::vector<DifferenceConstraint> random_feasible(std::size_t n,
                                                  std::size_t m, Rng& rng) {
  // Feasibility by construction: pick a hidden assignment h and only add
  // constraints it satisfies (c >= h[j] - h[i]).
  std::vector<double> h(n);
  for (double& x : h) x = rng.next_double(-20, 20);
  std::vector<DifferenceConstraint> out;
  for (std::size_t k = 0; k < m; ++k) {
    const auto i = static_cast<std::uint32_t>(rng.next_below(n));
    auto j = static_cast<std::uint32_t>(rng.next_below(n - 1));
    if (j >= i) ++j;
    out.push_back({i, j, h[j] - h[i] + rng.next_double(0, 5)});
  }
  return out;
}

TEST(Solver, FeasibleSystemSolved) {
  Rng rng(1);
  const auto constraints = random_feasible(40, 140, rng);
  DifferenceSystem sys(40);
  for (const auto& c : constraints) sys.add(c.i, c.j, c.c);
  expect_satisfies(sys, constraints, sys.solve());
  expect_satisfies(sys, constraints, sys.solve_reference());
}

TEST(Solver, EngineAndReferenceAgreeOnAssignment) {
  Rng rng(2);
  const auto constraints = random_feasible(30, 90, rng);
  DifferenceSystem sys(30);
  for (const auto& c : constraints) sys.add(c.i, c.j, c.c);
  const auto a = sys.solve();
  const auto b = sys.solve_reference();
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  // Both compute distances from the same virtual source, so the actual
  // assignments coincide (not just both feasible).
  for (std::size_t v = 0; v < 30; ++v) {
    EXPECT_NEAR(a.x[v], b.x[v], 1e-9);
  }
}

TEST(Solver, InfeasibleSystemGivesValidCertificate) {
  // x1 - x0 <= 1, x2 - x1 <= 1, x0 - x2 <= -3: summing gives 0 <= -1.
  DifferenceSystem sys(3);
  sys.add(0, 1, 1);
  sys.add(1, 2, 1);
  sys.add(2, 0, -3);
  for (const auto& sol : {sys.solve(), sys.solve_reference()}) {
    ASSERT_FALSE(sol.feasible);
    ASSERT_GE(sol.certificate.size(), 2u);
    // The certificate cycle must have negative total constraint weight.
    const Digraph g = sys.constraint_graph();
    double total = 0;
    for (std::size_t k = 0; k < sol.certificate.size(); ++k) {
      const Vertex u = sol.certificate[k];
      const Vertex v = sol.certificate[(k + 1) % sol.certificate.size()];
      double w = 0;
      ASSERT_TRUE(g.find_arc(u, v, &w)) << u << "->" << v;
      total += w;
    }
    EXPECT_LT(total, 0);
  }
}

TEST(Solver, InfeasibleBuriedInLargeFeasibleSystem) {
  Rng rng(3);
  const auto constraints = random_feasible(50, 150, rng);
  DifferenceSystem sys(50);
  for (const auto& c : constraints) sys.add(c.i, c.j, c.c);
  // Inject a tight negative loop between variables 7 and 8.
  sys.add(7, 8, 2.0);
  sys.add(8, 7, -2.5);
  const auto sol = sys.solve();
  ASSERT_FALSE(sol.feasible);
  const Digraph g = sys.constraint_graph();
  double total = 0;
  for (std::size_t k = 0; k < sol.certificate.size(); ++k) {
    const Vertex u = sol.certificate[k];
    const Vertex v = sol.certificate[(k + 1) % sol.certificate.size()];
    double w = 0;
    ASSERT_TRUE(g.find_arc(u, v, &w));
    total += w;
  }
  EXPECT_LT(total, 0);
}

TEST(Solver, AcceptsExternalDecomposition) {
  // Chain constraints give a path-shaped constraint graph: decompose it
  // with the tree finder and pass the tree in.
  DifferenceSystem sys(20);
  std::vector<DifferenceConstraint> cs;
  for (std::uint32_t v = 0; v + 1 < 20; ++v) {
    cs.push_back({v, v + 1, 1.0});
    cs.push_back({v + 1, v, 0.5});
    sys.add(v, v + 1, 1.0);
    sys.add(v + 1, v, 0.5);
  }
  const Digraph g = sys.constraint_graph();
  const Skeleton skel(g);
  const SeparatorTree tree = build_separator_tree(skel, make_tree_finder());
  const auto sol = sys.solve(&tree);
  expect_satisfies(sys, cs, sol);
}

TEST(Solver, EmptySystemIsFeasible) {
  DifferenceSystem sys(5);
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.x.size(), 5u);
}

TEST(Solver, ZeroCycleIsFeasible) {
  // x1 - x0 <= 1 and x0 - x1 <= -1: tight but consistent.
  DifferenceSystem sys(2);
  sys.add(0, 1, 1);
  sys.add(1, 0, -1);
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.feasible);
  EXPECT_NEAR(sol.x[1] - sol.x[0], 1.0, 1e-9);
}

}  // namespace
}  // namespace sepsp
