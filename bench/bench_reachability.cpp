// S5c — reachability as Algorithm 4.1 over the Boolean semiring.
//
// Paper claim: reachability preprocessing costs O((n + M(n^mu)) log^2 n)
// work — separator-sized Boolean products instead of the M(n)-sized
// product of the dense transitive closure. We measure the prep-work
// counter of SeparatorShortestPaths<BooleanSR>::build (the generic
// node step, charged per matrix cell) across sizes, the per-source
// query scans, and the word-packed dense-closure baseline on the same
// graphs.
#include <cmath>
#include <iostream>

#include "baseline/reach.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "pram/cost_model.hpp"

using namespace sepsp;
using namespace sepsp::bench;

int main() {
  Rng rng(1);
  const int s = scale();

  Table table("S5c — reachability: separator engine vs dense closure "
              "(random orientation of 2-D grids, mu = 1/2)");
  table.set_header({"n", "engine prep work", "/ n^1.5", "dense M(n) work",
                    "ratio", "query scans", "bfs scans"});
  std::vector<double> ns, works;
  for (std::size_t side : {17u, 25u, 33u, 49u, 65u}) {
    if (s == 0 && side > 33) break;
    // Random orientation: keep each arc with probability 0.7 so that
    // reachability is nontrivial.
    const Instance full = grid2d(side, WeightModel::unit(), rng);
    GraphBuilder b(full.n());
    Rng orient(7);
    for (const EdgeTriple& e : full.gg.graph.edge_list()) {
      if (orient.next_bool(0.7)) b.add_edge(e.from, e.to, 1.0);
    }
    const Digraph g = std::move(b).build();
    const SeparatorTree tree = build_separator_tree(
        Skeleton(g), make_grid_finder({side, side}));

    const pram::CostScope prep_scope;
    const auto engine = SeparatorShortestPaths<BooleanSR>::build(g, tree);
    const auto prep = prep_scope.cost();

    const pram::CostScope dense_scope;
    (void)transitive_closure_dense(g);
    const auto dense = dense_scope.cost();

    const auto query = engine.distances(0);
    const pram::CostScope bfs_scope;
    (void)bfs_reachable(g, 0);
    const auto bfs_cost = bfs_scope.cost();

    const double n = static_cast<double>(g.num_vertices());
    table.add_row()
        .cell(static_cast<std::uint64_t>(g.num_vertices()))
        .cell(with_commas(prep.work))
        .cell(static_cast<double>(prep.work) / std::pow(n, 1.5), 3)
        .cell(with_commas(dense.work))
        .cell(static_cast<double>(dense.work) /
                  static_cast<double>(prep.work),
              1)
        .cell(with_commas(query.edges_scanned))
        .cell(with_commas(bfs_cost.work));
    ns.push_back(n);
    works.push_back(static_cast<double>(prep.work));
  }
  table.print(std::cout);
  std::cout << "fitted prep-work exponent: " << fit_log_log_slope(ns, works)
            << "  (paper bound: 1.5 at mu = 1/2; the build charges one unit\n"
               "   per matrix cell, so the fit lands on the bound)\n"
            << "shape check: the dense/engine ratio grows with n.\n";
  return 0;
}
