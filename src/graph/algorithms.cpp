#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>

namespace sepsp {

BfsResult bfs(const Digraph& g, Vertex source) {
  const std::size_t n = g.num_vertices();
  SEPSP_CHECK(source < n);
  BfsResult r;
  r.hops.assign(n, BfsResult::kUnreachedHops);
  r.parent.assign(n, kInvalidVertex);
  std::deque<Vertex> queue{source};
  r.hops[source] = 0;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for (const Arc& a : g.out(u)) {
      if (r.hops[a.to] == BfsResult::kUnreachedHops) {
        r.hops[a.to] = r.hops[u] + 1;
        r.parent[a.to] = u;
        queue.push_back(a.to);
      }
    }
  }
  return r;
}

BfsResult bfs(const Skeleton& s, Vertex source,
              std::span<const std::uint8_t> mask) {
  const std::size_t n = s.num_vertices();
  SEPSP_CHECK(source < n);
  SEPSP_CHECK(mask.empty() || mask.size() == n);
  SEPSP_CHECK(mask.empty() || mask[source]);
  BfsResult r;
  r.hops.assign(n, BfsResult::kUnreachedHops);
  r.parent.assign(n, kInvalidVertex);
  std::deque<Vertex> queue{source};
  r.hops[source] = 0;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for (const Vertex v : s.neighbors(u)) {
      if (!mask.empty() && !mask[v]) continue;
      if (r.hops[v] == BfsResult::kUnreachedHops) {
        r.hops[v] = r.hops[u] + 1;
        r.parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return r;
}

bool is_connected(const Skeleton& s) {
  if (s.num_vertices() == 0) return true;
  const auto r = bfs(s, 0);
  return std::none_of(r.hops.begin(), r.hops.end(), [](std::uint32_t h) {
    return h == BfsResult::kUnreachedHops;
  });
}

}  // namespace sepsp
