// Dependency-impact audit via the separator engine over the Boolean
// semiring.
//
// Scenario: a layered build/dependency DAG (modules on a grid of
// packages x layers, edges to the next layer). "If module X changes,
// what can be affected?" is reachability from X — asked for many X, so
// the preprocess-once separator engine fits. Results are cross-checked
// against BFS and the dense transitive closure.
//
//   ./reachability_audit [--packages=24] [--layers=24] [--seed=4]
#include <cstdio>

#include "baseline/reach.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace sepsp;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto packages = args.get_uint("packages", 24, 1);
  const auto layers = args.get_uint("layers", 24, 1);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 4)));

  // Module (p, l) may depend on modules (p', l+1) for nearby p'.
  const std::size_t n = packages * layers;
  auto id = [&](std::size_t p, std::size_t l) {
    return static_cast<Vertex>(l * packages + p);
  };
  GraphBuilder builder(n);
  std::size_t deps = 0;
  for (std::size_t l = 0; l + 1 < layers; ++l) {
    for (std::size_t p = 0; p < packages; ++p) {
      for (std::size_t dp = 0; dp < 3; ++dp) {
        const std::size_t p2 =
            (p + rng.next_below(5) + packages - 2) % packages;
        if (rng.next_bool(0.6)) {
          builder.add_edge(id(p, l), id(p2, l + 1), 1.0);
          ++deps;
        }
      }
    }
  }
  const Digraph dag = std::move(builder).build();
  std::printf("dependency graph: %zu modules, %zu edges, %zu layers\n", n,
              dag.num_edges(), layers);

  WallTimer t_prep;
  const SeparatorTree tree =
      build_separator_tree(Skeleton(dag), make_bfs_finder());
  const auto engine = SeparatorShortestPaths<BooleanSR>::build(dag, tree);
  std::printf("preprocessed in %.1f ms (%zu Boolean shortcuts)\n",
              t_prep.millis(), engine.stats().eplus_edges);

  // Audit every module in layer 0: blast radius of a change.
  WallTimer t_audit;
  std::size_t widest = 0;
  Vertex widest_module = 0;
  for (std::size_t p = 0; p < packages; ++p) {
    const auto affected = engine.distances(id(p, 0)).dist;
    std::size_t count = 0;
    for (const auto bit : affected) count += bit;
    if (count > widest) {
      widest = count;
      widest_module = id(p, 0);
    }
  }
  std::printf(
      "audited %zu roots in %.1f ms; widest blast radius: module %u "
      "affects %zu of %zu modules\n",
      packages, t_audit.millis(), widest_module, widest, n);

  // Validate against BFS and the dense closure.
  const BitMatrix closure = transitive_closure_dense(dag);
  for (const Vertex probe : {id(0, 0), id(packages / 2, 0), widest_module}) {
    const auto got = engine.distances(probe).dist;
    const auto want = bfs_reachable(dag, probe);
    for (Vertex v = 0; v < n; ++v) {
      if ((got[v] != 0) != (want[v] != 0) ||
          (got[v] != 0) != closure.get(probe, v)) {
        std::fprintf(stderr, "FAIL: mismatch at %u -> %u\n", probe, v);
        return 1;
      }
    }
  }
  std::printf("OK (validated against BFS and dense closure)\n");
  return 0;
}
