// Compact routing tables (Section 6's representation of all-pairs
// shortest paths): every vertex stores a hub-label-sized table that is
// enough to *forward* along exact shortest paths hop by hop — no global
// state at query time, the textbook compact-routing contract.
//
// The tables are the distance hub labels of core/labeling.hpp built with
// the next-hop payload: per label entry (hub h on the designated root
// path) the table holds
//   * d(v, h) and the first arc of an optimal v -> h path,
//   * d(h, v) and the first arc *after h* of an optimal h -> v path,
// plus a per-leaf next-hop matrix for same-leaf pairs. To forward a
// packet at u toward v: pick the best hub h (the label merge of distance
// queries); if u == h step along h's out-hop toward v (stored at v),
// else step toward h (stored at u). Every step lands on an optimal
// u -> v path, so the walk realizes dist(u, v) exactly. One build answers
// both st-distance (distance(), bit-identical to the values-only labels) and
// st-path (route()).
//
// Positive-weight graphs only for routing (zero-weight cycles could let
// the greedy walk stall at constant remaining distance); distance()
// holds for any negative-cycle-free input.
#pragma once

#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/labeling.hpp"
#include "graph/digraph.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

class RoutingScheme : public HubLabeling<TropicalD> {
 public:
  /// Builds routing tables: two global queries + two O(m) tree
  /// extractions per distinct separator vertex, batched in chunks.
  /// `options` are the two internal engines' query options.
  static RoutingScheme build(const Digraph& g, const SeparatorTree& tree,
                             const Options& options = {});

  /// Builds tables against already-built engines — `fwd` over g, `bwd`
  /// over `reversed` (g's transpose) — the serving runtime's epoch-swap
  /// hook. The weight spans, when nonempty, override the graphs' baked
  /// arc weights (indexed like the respective arcs() arrays) and must
  /// match the weighting behind the engines.
  static RoutingScheme build_from_engines(
      const Digraph& g, const SeparatorTree& tree,
      const SeparatorShortestPaths<TropicalD>& fwd,
      const SeparatorShortestPaths<TropicalD>& bwd, const Digraph& reversed,
      std::span<const double> arc_weights = {},
      std::span<const double> reversed_arc_weights = {});

  /// First arc of an optimal u -> v path; kInvalidVertex if v is
  /// unreachable or u == v.
  Vertex next_hop(Vertex u, Vertex v) const;

  /// Exact distance; +infinity if unreachable.
  double distance(Vertex u, Vertex v) const { return value(u, v); }

  /// Forwards hop by hop until v (or failure); returns the full vertex
  /// path (empty when unreachable). The serving runtime's st-path answer.
  std::vector<Vertex> route(Vertex u, Vertex v) const;

 private:
  explicit RoutingScheme(HubLabeling<TropicalD> base)
      : HubLabeling<TropicalD>(std::move(base)) {}
};

}  // namespace sepsp
