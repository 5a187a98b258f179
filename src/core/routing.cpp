#include "core/routing.hpp"

namespace sepsp {

RoutingScheme RoutingScheme::build(const Digraph& g, const SeparatorTree& tree,
                                   const Options& options) {
  const Digraph reversed = g.transpose();
  const auto fwd = SeparatorShortestPaths<TropicalD>::build(g, tree, options);
  const auto bwd =
      SeparatorShortestPaths<TropicalD>::build(reversed, tree, options);
  return build_from_engines(g, tree, fwd, bwd, reversed);
}

RoutingScheme RoutingScheme::build_from_engines(
    const Digraph& g, const SeparatorTree& tree,
    const SeparatorShortestPaths<TropicalD>& fwd,
    const SeparatorShortestPaths<TropicalD>& bwd, const Digraph& reversed,
    std::span<const double> arc_weights,
    std::span<const double> reversed_arc_weights) {
  return RoutingScheme(build_payload<HubPayload::kNextHops>(
      g, tree, fwd, bwd, arc_weights, &reversed, reversed_arc_weights));
}

Vertex RoutingScheme::next_hop(Vertex u, Vertex v) const {
  SEPSP_CHECK(u < num_vertices() && v < num_vertices());
  if (u == v) return kInvalidVertex;
  Vertex hop = kInvalidVertex;
  const double d = best(u, v, &hop);
  return d == TropicalD::zero() ? kInvalidVertex : hop;
}

std::vector<Vertex> RoutingScheme::route(Vertex u, Vertex v) const {
  std::vector<Vertex> path{u};
  if (u == v) return path;
  Vertex cursor = u;
  while (cursor != v) {
    const Vertex hop = next_hop(cursor, v);
    if (hop == kInvalidVertex) return {};
    path.push_back(hop);
    cursor = hop;
    SEPSP_CHECK_MSG(path.size() <= num_vertices() + 1,
                    "routing walk exceeded n hops (zero-weight cycle?)");
  }
  return path;
}

}  // namespace sepsp
