// T1c — Table 1, time (parallel depth) rows.
//
// Paper claim: Algorithm 4.3 preprocesses in O(log^2 n) time, the
// Algorithm 4.1 route in O(log^3 n) time; queries take O(log^2 n) time.
// We report the critical-path depth counters of both builders and the
// phase counts of the leveled query across sizes; the growth must be
// polylogarithmic (depth / log^k n roughly flat), in stark contrast to
// the Theta(n)-phase Bellman–Ford on the raw graph.
#include <cmath>
#include <iostream>

#include "baseline/bellman_ford.hpp"
#include "bench_common.hpp"
#include "core/builder_doubling.hpp"

using namespace sepsp;
using namespace sepsp::bench;

int main() {
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int s = scale();

  Table table(
      "T1c — parallel depth: builders (critical path) and query (phases)");
  table.set_header({"n", "alg4.1 depth", "/log^3 n", "alg4.3 depth",
                    "/log^2 n", "query phases", "/log n", "raw BF phases"});
  for (std::size_t side : {17u, 25u, 33u, 49u, 65u, 97u}) {
    if (s == 0 && side > 33) break;
    const Instance inst = grid2d(side, wm, rng);
    const Augmentation rec =
        build_augmentation_recursive<TropicalD>(inst.gg.graph, inst.tree)
            .augmentation();
    const Augmentation dbl =
        build_augmentation_doubling<TropicalD>(inst.gg.graph, inst.tree)
            .augmentation();
    const auto engine =
        SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
    const auto query = engine.distances(0);
    // Jacobi (synchronous) phases = the PRAM round count of Section 2.2.
    const auto raw = bellman_ford_phases(inst.gg.graph, 0, 0, /*jacobi=*/true);
    const double lg = std::log2(static_cast<double>(inst.n()));
    table.add_row()
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(rec.critical_depth)
        .cell(static_cast<double>(rec.critical_depth) / (lg * lg * lg), 3)
        .cell(dbl.critical_depth)
        .cell(static_cast<double>(dbl.critical_depth) / (lg * lg), 3)
        .cell(static_cast<std::uint64_t>(query.phases))
        .cell(static_cast<double>(query.phases) / lg, 3)
        .cell(static_cast<std::uint64_t>(raw.phases));
  }
  table.print(std::cout);
  std::cout
      << "shape check: the /log^k columns stay bounded while raw Bellman-\n"
         "Ford phases grow like the graph diameter (~2*side for grids).\n";
  return 0;
}
