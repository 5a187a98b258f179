// What an E+ build leaves besides E+ itself (Section 3): the slot plan
// E+ is laid out by, the tree's height, ell and the build's cost.
//
// Every build lays E+ out by the tree's slot plan
// (separator/eplus_plan.hpp): one value per plan slot, in the plan's
// sweep order, zero() ("no path") where no owner node has a path. The
// pairs are the plan's, never copied, and the values live in the engine
// the build returns (SeparatorShortestPaths::shortcut_edges()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "pram/cost_model.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

/// An engine's build metadata (SeparatorShortestPaths::augmentation(),
/// IncrementalEngine::augmentation()): immutable, shared by every fork,
/// and holding no E+ value. Distances in (V, E u E+) equal distances in
/// G, and every distance is realized by a path of size
/// <= 4*height + 2*ell + 1 (Theorem 3.1). The vertex levels are the
/// plan's (plan->levels); the negative-cycle certificate is the
/// engine's (cycle_certified()).
struct Augmentation {
  /// The tree's slot plan E+ is laid out by (shared with every other
  /// build over the tree). Null only in a stored engine's augmentation:
  /// an image keeps E+ and its bucket table, not the plan.
  std::shared_ptr<const EplusPlan> plan;
  std::uint32_t height = 0;  ///< d_G of the decomposition tree
  std::size_t ell = 1;       ///< bound on leaf min-weight diameters
  pram::Cost build_cost;     ///< work/depth spent building E+ (the meter's
                             ///< depth sums kernel phases over all nodes)
  /// Critical-path parallel depth of the build: per synchronized phase,
  /// the depth of the *largest* node kernel (the PRAM "time" of Table 1).
  std::uint64_t critical_depth = 0;

  /// Theorem 3.1's bound on the min-weight diameter of G+.
  std::size_t diameter_bound() const { return 4 * height + 2 * ell + 1; }
};

/// ell: upper bound on the min-weight diameter of every leaf subgraph.
/// Absent negative cycles a shortest path inside a leaf uses at most
/// |V(t)| - 1 edges.
inline std::size_t leaf_diameter_bound(const SeparatorTree& tree) {
  std::size_t ell = 1;
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    if (t.is_leaf() && t.vertices.size() > 1) {
      ell = std::max(ell, t.vertices.size() - 1);
    }
  }
  return ell;
}

}  // namespace sepsp
