#include "solver/difference_constraints.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "baseline/bellman_ford.hpp"
#include "baseline/negative_cycle.hpp"
#include "separator/finders.hpp"

namespace sepsp {

Digraph DifferenceSystem::constraint_graph() const {
  GraphBuilder builder(num_variables_);
  for (const DifferenceConstraint& c : constraints_) {
    builder.add_edge(c.i, c.j, c.c);
  }
  return std::move(builder).build();
}

DifferenceSolution DifferenceSystem::solve(const SeparatorTree* tree) const {
  const Digraph g = constraint_graph();
  SeparatorTree local_tree;
  if (tree == nullptr) {
    const Skeleton skel(g);
    local_tree = build_separator_tree(skel, make_auto_finder(skel));
    tree = &local_tree;
  }
  const auto engine = SeparatorShortestPaths<TropicalD>::build(g, *tree);

  // Virtual source with 0-arcs to every variable == one() seeds on all.
  std::vector<std::pair<Vertex, double>> all(num_variables_);
  for (Vertex v = 0; v < num_variables_; ++v) all[v] = {v, TropicalD::one()};
  const QueryResult<TropicalD> r = engine.distances_seeded(all);
  if (r.negative_cycle) return extract_certificate(g);

  DifferenceSolution sol;
  sol.feasible = true;
  sol.x = r.dist;  // every vertex is a seed, so every x is finite
  return sol;
}

DifferenceSolution DifferenceSystem::solve_reference() const {
  const Digraph g = constraint_graph();
  const std::size_t n = num_variables_;
  GraphBuilder builder(n + 1);
  builder.add_edges(g.edge_list());
  for (Vertex v = 0; v < n; ++v) {
    builder.add_edge(static_cast<Vertex>(n), v, 0.0);
  }
  const Digraph ext = std::move(builder).build(/*dedup_min=*/false);
  const BellmanFordResult bf = bellman_ford(ext, static_cast<Vertex>(n));
  if (bf.negative_cycle) return extract_certificate(g);
  DifferenceSolution sol;
  sol.feasible = true;
  sol.x.assign(bf.dist.begin(), bf.dist.begin() + static_cast<long>(n));
  return sol;
}

DifferenceSolution DifferenceSystem::extract_certificate(
    const Digraph& g) const {
  DifferenceSolution sol;
  sol.feasible = false;
  const auto cycle = find_negative_cycle(g);
  SEPSP_CHECK_MSG(cycle.has_value(),
                  "certificate requested for a feasible system");
  sol.certificate.assign(cycle->begin(), cycle->end());
  return sol;
}

}  // namespace sepsp
