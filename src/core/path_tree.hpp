// Shortest-path tree extraction (paper remark ii).
//
// The engine computes exact distances; a shortest-path tree *in the
// original graph* is then recoverable in one O(m) pass: BFS from the
// source over the "tight" base arcs (u, v) with dist[u] + w(u,v) equal
// to dist[v]. The tight subgraph contains an optimal path to every
// reachable vertex (by optimality of the distances), so the BFS tree is
// a shortest-path tree. This avoids expanding shortcut edges entirely.
// Floating-point distances are compared with a relative tolerance.
#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "util/check.hpp"

namespace sepsp {

/// A shortest-path tree: parent arc per vertex (kInvalidVertex at the
/// source and at unreachable vertices).
struct PathTree {
  Vertex source = 0;
  std::vector<Vertex> parent;

  /// Reconstructs the vertex sequence source -> ... -> target, empty if
  /// target is unreachable.
  std::vector<Vertex> path_to(Vertex target) const {
    if (target != source && parent[target] == kInvalidVertex) return {};
    std::vector<Vertex> p{target};
    while (p.back() != source) p.push_back(parent[p.back()]);
    std::reverse(p.begin(), p.end());
    return p;
  }
};

/// Extracts a shortest-path tree from exact distances (TropicalD).
/// `arc_weights`, when nonempty, overrides g's baked arc weights
/// (indexed like g.arcs()) — the reweighted-engine spelling used by the
/// serving runtime's routing rebuilds. `tolerance` absorbs
/// floating-point drift between equivalent paths; the
/// BFS-over-tight-arcs construction is acyclic even when zero-weight
/// cycles make many arcs tight.
inline PathTree extract_path_tree(const Digraph& g, Vertex source,
                                  std::span<const double> dist,
                                  std::span<const double> arc_weights,
                                  double tolerance = 1e-9) {
  SEPSP_CHECK(dist.size() == g.num_vertices());
  SEPSP_CHECK(source < g.num_vertices());
  SEPSP_CHECK(arc_weights.empty() || arc_weights.size() == g.num_edges());
  const Arc* arc_base = g.arcs().data();
  PathTree tree;
  tree.source = source;
  tree.parent.assign(g.num_vertices(), kInvalidVertex);
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  std::deque<Vertex> queue{source};
  visited[source] = 1;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for (const Arc& a : g.out(u)) {
      if (visited[a.to] || !std::isfinite(dist[a.to])) continue;
      const double w =
          arc_weights.empty()
              ? a.weight
              : arc_weights[static_cast<std::size_t>(&a - arc_base)];
      const double via = dist[u] + w;
      const double scale =
          std::max({std::fabs(dist[u]), std::fabs(dist[a.to]), 1.0});
      if (via > dist[a.to] + tolerance * scale) continue;  // not tight
      visited[a.to] = 1;
      tree.parent[a.to] = u;
      queue.push_back(a.to);
    }
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    SEPSP_CHECK_MSG(v == source || !std::isfinite(dist[v]) || visited[v],
                    "reachable vertex not covered by tight arcs — "
                    "distances are not exact");
  }
  return tree;
}

/// Baked-weight spelling of extract_path_tree().
inline PathTree extract_path_tree(const Digraph& g, Vertex source,
                                  std::span<const double> dist,
                                  double tolerance = 1e-9) {
  return extract_path_tree(g, source, dist, std::span<const double>{},
                           tolerance);
}

/// Total weight of the tree path to `target` (diagnostic; matches
/// dist[target] up to accumulated tolerance).
inline double tree_path_weight(const Digraph& g, const PathTree& tree,
                               Vertex target) {
  const std::vector<Vertex> p = tree.path_to(target);
  double total = 0;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    double w = 0;
    SEPSP_CHECK(g.find_arc(p[i], p[i + 1], &w));
    total += w;
  }
  return total;
}

}  // namespace sepsp
