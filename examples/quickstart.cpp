// Quickstart: shortest paths on a weighted grid with the separator
// engine, compared against Dijkstra.
//
//   ./quickstart [--rows=32] [--cols=32] [--sources=4] [--seed=1]
//                [--stats]   (print engine + process observability)
#include <cstdio>
#include <iostream>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "obs/sink.hpp"
#include "core/path_tree.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace sepsp;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto rows = args.get_uint("rows", 32, 1);
  const auto cols = args.get_uint("cols", 32, 1);
  const auto num_sources = args.get_uint("sources", 4, 1);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  // 1. A weighted directed grid (independent weights per direction).
  const std::vector<std::size_t> dims = {cols, rows};
  const GeneratedGraph gg =
      make_grid(dims, WeightModel::uniform(1.0, 10.0), rng);
  std::printf("grid %zux%zu: n=%zu m=%zu\n", rows, cols,
              gg.graph.num_vertices(), gg.graph.num_edges());

  // 2. Separator decomposition of the (undirected, unweighted) skeleton.
  const Skeleton skel(gg.graph);
  WallTimer t_tree;
  const SeparatorTree tree = build_separator_tree(skel, make_grid_finder(dims));
  const auto stats = tree.stats();
  std::printf("decomposition: %zu nodes, height %u, max |S|=%zu (%.1f ms)\n",
              stats.num_nodes, stats.height, stats.max_separator,
              t_tree.millis());

  // 3. Preprocess: build the shortcut set E+ (Algorithm 4.1).
  WallTimer t_build;
  const auto engine = SeparatorShortestPaths<>::build(gg.graph, tree);
  const EngineStats build_stats = engine.stats();
  std::printf("E+: %zu shortcuts, diameter bound %zu (%.1f ms)\n",
              build_stats.eplus_edges, build_stats.diameter_bound,
              t_build.millis());

  // 4. Query several sources; cross-check against Dijkstra.
  Rng pick(7);
  for (std::size_t s = 0; s < num_sources; ++s) {
    const auto source =
        static_cast<Vertex>(pick.next_below(gg.graph.num_vertices()));
    WallTimer t_query;
    const QueryResult<TropicalD> r = engine.distances(source);
    const double query_ms = t_query.millis();
    const DijkstraResult check = dijkstra(gg.graph, source);
    double max_err = 0;
    std::size_t reached = 0;
    for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) {
      if (std::isfinite(check.dist[v])) {
        ++reached;
        max_err = std::max(max_err, std::fabs(r.dist[v] - check.dist[v]));
      }
    }
    // 5. Recover an explicit shortest path in the original graph.
    const auto target = static_cast<Vertex>(gg.graph.num_vertices() - 1);
    const PathTree tree_sp = extract_path_tree(gg.graph, source, r.dist);
    const auto path = tree_sp.path_to(target);
    std::printf(
        "source %5u: %zu reached, query %.2f ms (%llu scans), "
        "max |err| vs Dijkstra %.2e, path to %u has %zu hops\n",
        source, reached, query_ms,
        static_cast<unsigned long long>(r.edges_scanned), max_err, target,
        path.empty() ? 0 : path.size() - 1);
    if (max_err > 1e-6) {
      std::fprintf(stderr, "FAIL: distances disagree with Dijkstra\n");
      return 1;
    }
  }
  // 6. Observability: schedule shape + cumulative query counters
  //    (filled in every build mode), then the process-wide registry
  //    and trace spans when built with SEPSP_OBS=ON.
  if (args.get_bool("stats", false)) {
    engine.stats().print(std::cout);
    if (obs::compiled_in()) {
      obs::print_all(std::cout);
    }
  }
  std::printf("OK\n");
  return 0;
}
