// F2 — Figure 2 / Theorem 3.1: shortcut paths with bitonic levels and
// the min-weight diameter bound diam(G+) <= 4 d_G + 2 ell + 1.
//
// Measures the shortcut radius (max, over targets, of the minimum size
// of an optimal path in G+) across families and sources, against both
// the theorem bound and the raw graph's hop radius; then prints one
// concrete witness path with its level labels — the paper's Figure 2.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "graph/algorithms.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

std::size_t raw_hop_radius(const Digraph& g, Vertex source) {
  const BfsResult r = bfs(g, source);
  std::size_t radius = 0;
  for (const std::uint32_t h : r.hops) {
    if (h != BfsResult::kUnreachedHops) {
      radius = std::max<std::size_t>(radius, h);
    }
  }
  return radius;
}

}  // namespace

int main() {
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int s = scale();

  Table table("F2 — measured min-weight radius of G+ vs Theorem 3.1 bound");
  table.set_header({"family", "n", "d_G", "ell", "bound 4d+2l+1",
                    "measured radius", "raw hop radius"});
  std::vector<Instance> instances;
  instances.push_back(grid2d(s == 0 ? 17 : 33, wm, rng));
  instances.push_back(grid3d(s == 0 ? 5 : 9, wm, rng));
  instances.push_back(tree_family(s == 0 ? 500 : 2000, wm, rng));
  instances.push_back(mesh_family(s == 0 ? 10 : 20, wm, rng));
  {
    Instance path{"long-path", 0.0,
                  make_path(s == 0 ? 129 : 1025, wm, rng, true), {}};
    path.tree =
        build_separator_tree(Skeleton(path.gg.graph), make_tree_finder());
    instances.push_back(std::move(path));
  }

  for (const Instance& inst : instances) {
    const auto engine =
        build_augmentation_recursive<TropicalD>(inst.gg.graph, inst.tree);
    const Augmentation& aug = engine.augmentation();
    Rng pick(5);
    std::size_t radius = 0, raw = 0;
    for (int trial = 0; trial < 3; ++trial) {
      const auto src = static_cast<Vertex>(pick.next_below(inst.n()));
      radius = std::max(radius, measure_shortcut_radius(engine, src));
      raw = std::max(raw, raw_hop_radius(inst.gg.graph, src));
    }
    table.add_row()
        .cell(inst.family)
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(static_cast<std::uint64_t>(aug.height))
        .cell(aug.ell)
        .cell(aug.diameter_bound())
        .cell(radius)
        .cell(raw);
    if (radius > aug.diameter_bound()) {
      std::cerr << "THEOREM 3.1 VIOLATION on " << inst.family << "\n";
      return 1;
    }
  }
  table.print(std::cout);

  // --- Figure 2: a witness path with bitonic level labels --------------
  {
    Rng lrng(6);
    const GeneratedGraph gg = make_path(257, wm, lrng, true);
    const SeparatorTree tree =
        build_separator_tree(Skeleton(gg.graph), make_tree_finder());
    const auto engine =
        build_augmentation_recursive<TropicalD>(gg.graph, tree);
    const EdgeBucket<TropicalD>& eplus = engine.shortcut_edges();
    // Hop-minimal optimal path 0 -> 256 in G+, via synchronous BF with
    // parent tracking.
    struct Edge {
      Vertex from, to;
      double value;
    };
    std::vector<Edge> edges;
    for (Vertex u = 0; u < gg.graph.num_vertices(); ++u) {
      for (const Arc& a : gg.graph.out(u)) {
        edges.push_back({u, a.to, a.weight});
      }
    }
    for (std::size_t slot = 0; slot < eplus.size(); ++slot) {
      edges.push_back({eplus.from_data()[slot], eplus.to_data()[slot],
                       eplus.value(slot)});
    }
    std::vector<double> dist(gg.graph.num_vertices(), TropicalD::zero());
    std::vector<Vertex> parent(gg.graph.num_vertices(), kInvalidVertex);
    dist[0] = 0;
    for (;;) {
      bool changed = false;
      std::vector<double> next = dist;
      for (const auto& e : edges) {
        if (std::isinf(dist[e.from])) continue;
        const double cand = dist[e.from] + e.value;
        if (cand < next[e.to] - 1e-9) {
          next[e.to] = cand;
          parent[e.to] = e.from;
          changed = true;
        }
      }
      dist.swap(next);
      if (!changed) break;
    }
    std::vector<Vertex> path;
    for (Vertex v = 256; v != kInvalidVertex; v = parent[v]) {
      path.push_back(v);
    }
    std::cout << "\nFigure 2 — an optimal 0->256 path on a 257-vertex path "
                 "graph in G+,\nwritten as vertex(level); the level sequence "
                 "is bitonic:\n  ";
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      const Vertex v = *it;
      const LevelAssignment& levels = engine.augmentation().plan->levels;
      if (levels.defined(v)) {
        std::cout << v << "(" << levels.level[v] << ") ";
      } else {
        std::cout << v << "(-) ";
      }
    }
    std::cout << "\n  " << path.size() - 1 << " hops vs raw 256 hops; bound "
              << engine.augmentation().diameter_bound() << ".\n";
  }
  return 0;
}
