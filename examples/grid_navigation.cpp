// Multi-source route planning on a 3-D grid world (the paper's
// "multi-dimensional grid-like graphs" motivation, remark v).
//
// Scenario: a warehouse with several floors modeled as a 3-D lattice;
// travel times differ per direction (conveyors). Dispatch needs
// distances from every depot to every cell — the classic s-sources
// workload where preprocessing once amortizes.
//
//   ./grid_navigation [--x=20 --y=20 --z=6] [--depots=5] [--seed=1]
#include <cmath>
#include <cstdio>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/path_tree.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace sepsp;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::vector<std::size_t> dims = {
      args.get_uint("x", 20, 1),
      args.get_uint("y", 20, 1),
      args.get_uint("z", 6, 1)};
  const auto depots = args.get_uint("depots", 5, 1);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  const GeneratedGraph world =
      make_grid(dims, WeightModel::uniform(0.5, 4.0), rng);
  const std::size_t n = world.graph.num_vertices();
  std::printf("warehouse %zux%zux%zu: %zu cells, %zu directed lanes\n",
              dims[0], dims[1], dims[2], n, world.graph.num_edges());

  // The grid's separator decomposition: axis-aligned plane cuts,
  // mu = (d-1)/d = 2/3.
  WallTimer t_prep;
  const SeparatorTree tree =
      build_separator_tree(Skeleton(world.graph), make_grid_finder(dims));
  const auto engine = SeparatorShortestPaths<>::build(world.graph, tree);
  std::printf("preprocessed in %.1f ms: height %u, %zu shortcuts\n",
              t_prep.millis(), tree.height(),
              engine.stats().eplus_edges);

  // Depot positions.
  std::vector<Vertex> depot_cells;
  Rng pick(7);
  for (std::size_t d = 0; d < depots; ++d) {
    depot_cells.push_back(static_cast<Vertex>(pick.next_below(n)));
  }

  // Batch query (parallel over depots); then per-cell best depot.
  WallTimer t_query;
  const auto per_depot = engine.distances_batch(depot_cells);
  std::vector<std::size_t> best_depot(n, 0);
  std::vector<double> best_time(n);
  for (Vertex cell = 0; cell < n; ++cell) {
    best_time[cell] = per_depot[0].dist[cell];
    for (std::size_t d = 1; d < depots; ++d) {
      if (per_depot[d].dist[cell] < best_time[cell]) {
        best_time[cell] = per_depot[d].dist[cell];
        best_depot[cell] = d;
      }
    }
  }
  std::printf("%zu-depot coverage computed in %.1f ms\n", depots,
              t_query.millis());

  std::vector<std::size_t> served(depots, 0);
  double worst = 0;
  Vertex worst_cell = 0;
  for (Vertex cell = 0; cell < n; ++cell) {
    ++served[best_depot[cell]];
    if (best_time[cell] > worst) {
      worst = best_time[cell];
      worst_cell = cell;
    }
  }
  for (std::size_t d = 0; d < depots; ++d) {
    std::printf("  depot %zu at cell %u serves %zu cells\n", d,
                depot_cells[d], served[d]);
  }

  // Reconstruct the delivery route to the worst-served cell.
  const std::size_t d = best_depot[worst_cell];
  const PathTree route =
      extract_path_tree(world.graph, depot_cells[d], per_depot[d].dist);
  const auto hops = route.path_to(worst_cell).size() - 1;
  std::printf("worst-served cell %u: %.2f minutes from depot %zu (%zu hops)\n",
              worst_cell, worst, d, hops);

  // Spot-check one depot against Dijkstra.
  const DijkstraResult check = dijkstra(world.graph, depot_cells[0]);
  for (Vertex cell = 0; cell < n; ++cell) {
    if (std::fabs(check.dist[cell] - per_depot[0].dist[cell]) > 1e-6) {
      std::fprintf(stderr, "FAIL: mismatch vs Dijkstra at %u\n", cell);
      return 1;
    }
  }
  std::printf("OK (validated against Dijkstra)\n");
  return 0;
}
