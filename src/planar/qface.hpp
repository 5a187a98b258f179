// The Section-6 q-face pipeline: reduce shortest paths on a hammock-
// decomposed planar graph to shortest paths on the contracted graph G'
// with O(q) vertices, then run the separator engine on G'.
//
//   preprocessing:
//     1. per hammock, distances between / from / to its <= 4 attachment
//        vertices inside the hammock subgraph,
//     2. G' = attachment vertices + per-hammock 4x4 distance cliques +
//        the original cross-hammock edges,
//     3. separator decomposition of G' (it is planar; geometric finder)
//        and E+ construction on G'.
//   query (single source, all targets): one in-hammock sweep at the
//     source, one weighted multi-seed engine run on G', and a combine
//     pass over the per-hammock attachment-to-vertex tables. O(n + |E+|)
//     per source, matching the O(n + q log q) shape of the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "planar/hammock.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

class QFacePipeline {
 public:
  /// Preprocesses the hammock graph (which must outlive the pipeline).
  static QFacePipeline build(const HammockGraph& hg);

  /// Distances from `source` to every vertex of the original graph.
  std::vector<double> distances(Vertex source) const;

  /// Point-to-point distance (computed via distances(u)).
  double distance(Vertex u, Vertex v) const;

  /// k-pair distance queries (the Section 6 / Djidjev-et-al. workload):
  /// after an all-pairs table on G' (O(q) sources of O(q log q) work),
  /// a cross-hammock pair costs O(1) table lookups plus the in-hammock
  /// head/tail tables; a same-hammock pair adds one local sweep. The
  /// paper's outerplanar O(log n)-per-query structures are replaced by
  /// that local sweep (see DESIGN.md substitution 4).
  std::vector<double> distance_pairs(
      std::span<const std::pair<Vertex, Vertex>> pairs) const;

  /// |V(G')| — should be O(q).
  std::size_t reduced_vertices() const;
  std::size_t reduced_edges() const;

 private:
  QFacePipeline() = default;

  // All state lives behind one pointer so the pipeline is safely movable
  // (the engine points at the reduced graph stored alongside it).
  struct State;
  std::shared_ptr<const State> state_;
};

}  // namespace sepsp
