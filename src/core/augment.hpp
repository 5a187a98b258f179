// The augmentation E+ of Section 3: shortcut edges whose weights are
// exact subgraph distances, shared by every builder and the query
// engine.
//
// Every build lays E+ out by the tree's slot plan
// (separator/eplus_plan.hpp): one value per plan slot, in the plan's
// sweep order, zero() ("no path") where no owner node has a path. The
// pairs are the plan's, never copied: a build writes values and
// nothing else, and the engine pairs them with the plan's slot array.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/digraph.hpp"
#include "pram/cost_model.hpp"
#include "semiring/semiring.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

/// The computed augmentation: E+ plus the labeling the query needs.
/// Distances in (V, E u E+) equal distances in G, and every distance is
/// realized by a path of size <= 4*height + 2*ell + 1 (Theorem 3.1).
///
/// An engine's augmentation (SeparatorShortestPaths::augmentation(),
/// IncrementalEngine::augmentation()) is immutable structure — plan,
/// levels, height, ell, costs and the build-time certificate — with no
/// values: an engine keeps E+'s values only in its own edge arrays
/// (SeparatorShortestPaths::shortcut_edges()). Only the free-function
/// builders fill `values`, and from_augmentation() consumes them. A
/// stored engine's has no plan and no vertex levels either.
template <Semiring S>
struct Augmentation {
  /// E+ as a free-function builder returns it: one value per slot of
  /// `plan`, in plan order, so values[s] belongs to the pair
  /// (plan->slots.from[s], plan->slots.to[s]). A slot no owner node has
  /// a path for keeps zero(): every engine keeps every slot, so
  /// reweighting may activate it and every engine over the tree shares
  /// one slot array. Empty in an engine's augmentation.
  std::vector<typename S::Value> values;
  /// The tree's slot plan the values are laid out by (shared with every
  /// other build over the tree). Every builder sets it;
  /// from_augmentation() rejects an augmentation without one. Null only
  /// in a stored engine's augmentation.
  std::shared_ptr<const EplusPlan> plan;
  LevelAssignment levels;
  std::uint32_t height = 0;  ///< d_G of the decomposition tree
  std::size_t ell = 1;       ///< bound on leaf min-weight diameters
  pram::Cost build_cost;     ///< work/depth spent building E+ (the meter's
                             ///< depth sums kernel phases over all nodes)
  /// Critical-path parallel depth of the build: per synchronized phase,
  /// the depth of the *largest* node kernel (the PRAM "time" of Table 1).
  std::uint64_t critical_depth = 0;
  /// The build certified that G has no negative cycle: Algorithm 4.1
  /// with Floyd–Warshall closures found no diagonal cell below one()
  /// (builder_recursive.hpp). Engines frozen over a certified
  /// augmentation skip the per-query verification pass. False means
  /// "not certified", not "has a cycle": Algorithm 4.3 builds and
  /// hand-built augmentations keep the pass. A v6 image stores the flag
  /// of the engine it was written from. An IncrementalEngine's keeps the
  /// build's flag; each snapshot freezes the current one
  /// (cycle_certified()).
  bool cycle_free = false;

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
