// The augmentation E+ of Section 3: shortcut edges whose weights are
// exact subgraph distances, shared by both builder algorithms and the
// query engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/levels.hpp"
#include "graph/digraph.hpp"
#include "pram/cost_model.hpp"
#include "semiring/semiring.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

/// One shortcut edge of E+ with its semiring value.
template <Semiring S>
struct Shortcut {
  Vertex from = 0;
  Vertex to = 0;
  typename S::Value value{};
};

/// The computed augmentation: E+ plus the labeling the query needs.
/// Distances in (V, E u E+) equal distances in G, and every distance is
/// realized by a path of size <= 4*height + 2*ell + 1 (Theorem 3.1).
///
/// Value-mutation discipline: the structural fields (shortcut
/// endpoints, levels, height, ell, build_cost) are immutable after
/// construction and safe to share across threads. The shortcut *values*
/// are owned by whoever built the augmentation — a live
/// IncrementalEngine rewrites them in apply() — so concurrent readers
/// (snapshot query engines) must never resolve values through this
/// struct; they read from their own copy-on-write store
/// (LeveledQuery::shortcut_edges()).
template <Semiring S>
struct Augmentation {
  /// E+: one entry per distinct (from, to) pair, (from, to)-sorted
  /// (LeveledQuery relies on the order). The engine builds drop zero()
  /// ("no path") pairs; IncrementalEngine keeps them at zero() as slots
  /// that reweighting may activate.
  std::vector<Shortcut<S>> shortcuts;
  /// The tree's slot plan the shortcuts were laid out by (shared with
  /// every other build over the tree); null for Algorithm 4.3 builds,
  /// stored images and hand-built augmentations.
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
  /// hand-built augmentations keep the pass. A v4 image stores the flag
  /// of the engine it was written from.
  bool cycle_free = false;

  /// Theorem 3.1's bound on the min-weight diameter of G+.
  std::size_t diameter_bound() const { return 4 * height + 2 * ell + 1; }
};

/// Sorts shortcuts by (from, to) and keeps the best value per pair,
/// dropping pairs whose value is zero() ("no path") and self loops that
/// cannot improve anything (value >= one() is useless on the diagonal).
/// The sort is two stable counting-sort passes, by `to` and then by
/// `from`, linear in |edges| + n; equal pairs keep their input order,
/// so the later of two equal values wins. The result is sized to the
/// distinct pairs. The Algorithm 4.3 builders use it; Algorithm 4.1
/// builds minimize through the tree's slot plan instead
/// (detail::minimize_slots), which keeps the same bits.
template <Semiring S>
void dedup_shortcuts(std::vector<Shortcut<S>>& edges) {
  std::size_t n = 0;
  for (const Shortcut<S>& e : edges) {
    n = std::max<std::size_t>({n, std::size_t{e.from} + 1,
                               std::size_t{e.to} + 1});
  }
  {
    std::vector<Shortcut<S>> tmp(edges.size());
    std::vector<std::size_t> pos(n + 1);
    const auto scatter = [&](const std::vector<Shortcut<S>>& in,
                             std::vector<Shortcut<S>>& out, auto key) {
      std::fill(pos.begin(), pos.end(), 0);
      for (const Shortcut<S>& e : in) ++pos[key(e) + 1];
      for (std::size_t v = 0; v < n; ++v) pos[v + 1] += pos[v];
      for (const Shortcut<S>& e : in) out[pos[key(e)]++] = e;
    };
    scatter(edges, tmp, [](const Shortcut<S>& e) { return e.to; });
    scatter(tmp, edges, [](const Shortcut<S>& e) { return e.from; });
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i;
    auto best = edges[i].value;
    for (++j; j < edges.size() && edges[j].from == edges[i].from &&
              edges[j].to == edges[i].to;
         ++j) {
      best = S::combine(best, edges[j].value);
    }
    const bool useless =
        !S::improves(S::zero(), best) ||  // no path
        (edges[i].from == edges[i].to && !S::improves(S::one(), best));
    if (!useless) {
      edges[out++] = {edges[i].from, edges[i].to, best};
    }
    i = j;
  }
  edges.resize(out);
  edges.shrink_to_fit();
}

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
