// Compact routing on a mesh network (the Section-6 "compact routing
// table" deliverable in action).
//
// Scenario: routers on a planar mesh forward packets using only their
// local table (hub labels + a leaf next-hop matrix) — no router knows
// the whole topology, yet every packet follows an exact shortest path.
//
//   ./network_routing [--side=16] [--packets=8] [--seed=5]
#include <cmath>
#include <cstdio>

#include "baseline/dijkstra.hpp"
#include "core/routing.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace sepsp;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto side = args.get_uint("side", 16, 1);
  const auto packets = args.get_uint("packets", 8, 1);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 5)));

  const GeneratedGraph net =
      make_triangulated_grid(side, side, WeightModel::uniform(1, 10), rng);
  const std::size_t n = net.graph.num_vertices();
  std::printf("mesh network: %zu routers, %zu links\n", n,
              net.graph.num_edges());

  WallTimer t_build;
  const SeparatorTree tree = build_separator_tree(
      Skeleton(net.graph), make_geometric_finder(net.coords));
  const RoutingScheme scheme = RoutingScheme::build(net.graph, tree);
  std::printf(
      "routing tables built in %.1f ms: %zu total entries "
      "(%.1f per router; a full next-hop matrix would need %zu)\n",
      t_build.millis(), scheme.total_label_entries(),
      static_cast<double>(scheme.total_label_entries()) / static_cast<double>(n),
      n * n);

  Rng pick(9);
  for (std::size_t p = 0; p < packets; ++p) {
    const auto src = static_cast<Vertex>(pick.next_below(n));
    const auto dst = static_cast<Vertex>(pick.next_below(n));
    const auto path = scheme.route(src, dst);
    const DijkstraResult truth = dijkstra(net.graph, src);
    double latency = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      double w = 0;
      net.graph.find_arc(path[i], path[i + 1], &w);
      latency += w;
    }
    std::printf("packet %zu: %4u -> %4u  %2zu hops, latency %6.2f", p, src,
                dst, path.empty() ? 0 : path.size() - 1, latency);
    if (std::fabs(latency - truth.dist[dst]) > 1e-6) {
      std::printf("  MISMATCH (optimal %.2f)\n", truth.dist[dst]);
      return 1;
    }
    std::printf("  (optimal)\n");
  }

  // Link failure drill: drop a link on a used path, rebuild, re-route.
  const auto demo_src = static_cast<Vertex>(0);
  const auto demo_dst = static_cast<Vertex>(n - 1);
  const auto before = scheme.route(demo_src, demo_dst);
  if (before.size() >= 3) {
    GraphBuilder builder(n);
    for (const EdgeTriple& e : net.graph.edge_list()) {
      if (!(e.from == before[1] && e.to == before[2]) &&
          !(e.from == before[2] && e.to == before[1])) {
        builder.add_edge(e.from, e.to, e.weight);
      }
    }
    const Digraph degraded = std::move(builder).build();
    // Remark iv: the old decomposition still covers the degraded
    // skeleton (dropping edges cannot break separation).
    const RoutingScheme rerouted = RoutingScheme::build(degraded, tree);
    const auto after = rerouted.route(demo_src, demo_dst);
    const DijkstraResult truth = dijkstra(degraded, demo_src);
    double latency = 0;
    for (std::size_t i = 0; i + 1 < after.size(); ++i) {
      double w = 0;
      degraded.find_arc(after[i], after[i + 1], &w);
      latency += w;
    }
    std::printf(
        "link %u--%u failed: route %u -> %u now %zu hops, latency %.2f "
        "(optimal %.2f)\n",
        before[1], before[2], demo_src, demo_dst,
        after.empty() ? 0 : after.size() - 1, latency, truth.dist[demo_dst]);
    if (std::fabs(latency - truth.dist[demo_dst]) > 1e-6) {
      std::printf("FAIL: rerouted path is not optimal\n");
      return 1;
    }
  }
  std::printf("OK\n");
  return 0;
}
