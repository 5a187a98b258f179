// Hammock-structured planar graphs (Section 6 workloads).
//
// Frederickson's hammock decomposition splits a planar graph with all
// vertices on q faces into O(q) outerplanar "hammocks", each attached to
// the rest of the graph through at most 4 vertices. Implementing the
// full decomposition of an arbitrary embedding is a paper-sized project
// of its own; this module instead *generates* graphs with a known
// hammock structure of parameterized q (DESIGN.md substitution 4): a
// ring of q ladder-shaped (outerplanar) hammocks, consecutive hammocks
// joined through their corner attachment vertices. The q-face pipeline
// (qface.hpp) then consumes exactly the decomposition output shape that
// Section 6's bounds describe.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/generators.hpp"

namespace sepsp {

/// One hammock: an outerplanar ladder subgraph plus its <= 4 attachment
/// vertices (global ids; attachments are hammock members).
struct Hammock {
  std::vector<Vertex> vertices;          ///< sorted global ids
  std::array<Vertex, 4> attachments{};   ///< NW, SW, NE, SE corners
};

/// A generated hammock-structured graph with its (known) decomposition.
struct HammockGraph {
  Digraph graph;
  std::vector<Hammock> hammocks;
  std::vector<std::array<double, 3>> coords;  ///< planar layout

  /// hammock id per vertex.
  std::vector<std::uint32_t> hammock_of;

  std::size_t num_hammocks() const { return hammocks.size(); }

  /// All attachment vertices (sorted, unique) — the O(q) skeleton of G'.
  std::vector<Vertex> attachment_vertices() const;
};

/// Builds a ring of `num_hammocks` ladders, each with `rungs` rungs
/// (2 * rungs vertices). Total n = 2 * rungs * num_hammocks. All edges
/// bidirectional with independently drawn weights.
HammockGraph make_hammock_ring(std::size_t num_hammocks, std::size_t rungs,
                               const WeightModel& weights, Rng& rng);

}  // namespace sepsp
