// Classic graph traversals used across the library: BFS over digraphs
// and (optionally masked) skeletons, and skeleton connectivity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/skeleton.hpp"

namespace sepsp {

/// Hop distances and a BFS tree from `source` over directed arcs.
/// Unreached vertices get hops == kUnreachedHops, parent == kInvalidVertex.
struct BfsResult {
  static constexpr std::uint32_t kUnreachedHops = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> hops;
  std::vector<Vertex> parent;
};
BfsResult bfs(const Digraph& g, Vertex source);

/// BFS over an undirected skeleton, optionally restricted to vertices
/// where mask[v] is true (mask empty = no restriction).
BfsResult bfs(const Skeleton& s, Vertex source,
              std::span<const std::uint8_t> mask = {});

/// True if every vertex is reachable from every other in the skeleton.
bool is_connected(const Skeleton& s);

}  // namespace sepsp
