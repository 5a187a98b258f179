// Incremental reweighting (paper remark iv, taken seriously).
//
// The decomposition depends only on the unweighted skeleton, so weight
// changes never invalidate the tree — and they invalidate only part of
// E+: an edge (u, v) is inside G(t) exactly for the tree nodes
// containing both endpoints, a root-path-shaped set that branches only
// where both endpoints sit in a separator. This engine keeps the
// Algorithm-4.1 build's entry arena alive — every node's closed H_S and
// boundary-distance matrix, laid out by the tree's slot plan — and,
// after a batch of weight updates, recomputes just the affected nodes
// bottom-up before re-minimizing the E+ slots whose entries moved.
//
// Proportionality contract: every phase of apply() is bounded by the
// dirty region, never the whole structure.
//   * Recompute: the affected tree nodes, in the build's fork-join pass
//     (detail::tree_pass) restricted to the dirty region — the changed
//     arcs' leaves and their ancestors, which update_edge marks. A
//     light subtree runs serially as one pool task; a heavier node
//     forks its dirty children and recomputes itself right after the
//     join, with no level barrier. Each recompute runs the node step
//     into scratch and diffs the closed H_S and the boundary matrix row
//     by row against the node's slice of the arena (a memcmp per row,
//     per-cell work only on rows that differ), writing only the cells
//     that moved. The per-node results are folded serially in preorder
//     over the dirty region, so results and ApplyStats do not depend on
//     the schedule the pool picks.
//   * Re-minimize: a touched-slot worklist built from the moved entries
//     (epoch-stamped dedup) — O(moved + touched x owners), not O(|E+|)
//     and not O(entries of the recomputed nodes).
//   * Snapshot: the live engine's bucket values live in slab-chunked
//     copy-on-write storage (util/slab.hpp), so snapshot() freezes a
//     fork of it — O(#slabs) pointer copies — and the refreshes of the
//     *next* apply() detach only the slabs they touch. A held snapshot
//     stays bit-identical forever, and outlives this engine.
//
// Cost per batch: the Algorithm-4.1 node cost summed over the affected
// subtree path — O(polylog) nodes for a few edges, against the full
// O(n + n^{3 mu}) rebuild (ablated in bench_x_incremental).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <span>

#include "core/augment.hpp"
#include "core/engine.hpp"
#include "core/routing.hpp"
#include "graph/digraph.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

class ApproxEngine;  // approx/approx.hpp

class IncrementalEngine {
 public:
  /// Full Algorithm-4.1 build that retains all per-node state. `g` and
  /// `tree` must outlive the engine.
  static IncrementalEngine build(const Digraph& g, const SeparatorTree& tree);

  /// Stages a new weight for the arc u -> v (all parallel arcs are set).
  /// Aborts if the arc does not exist. Cheap; takes effect at apply().
  /// The arc's containing leaves are memoized on first touch, so a
  /// streaming workload hitting the same arcs pays an O(#leaves) lookup
  /// per call, not a subtree walk, plus marking the leaves' ancestors
  /// up to the first one already marked.
  void update_edge(Vertex u, Vertex v, double weight);

  /// Recomputes the affected part of E+ and refreshes the live engine.
  /// Returns the number of tree nodes recomputed. Each apply() that had
  /// staged changes advances epoch() by one. Disjoint dirty subtrees are
  /// recomputed in parallel; the result is deterministic — the same
  /// batches give bit-identical matrices, shortcut values, and
  /// ApplyStats on every run.
  std::size_t apply();

  /// Counters of the most recent apply(): the proportionality
  /// measures. `slabs_copied` counts value slabs detached from
  /// outstanding snapshots by this batch's refreshes (the incremental
  /// cost the next snapshot() inherits).
  struct ApplyStats {
    std::size_t nodes_recomputed = 0;
    std::size_t slots_touched = 0;
    std::size_t slabs_copied = 0;
    /// Off-diagonal entries (the ones that own a slot) of the
    /// recomputed nodes whose value bits changed; every touched slot
    /// owns at least one of them, so slots_touched <= entries_moved <=
    /// the recomputed nodes' off-diagonal entries.
    std::size_t entries_moved = 0;
  };
  ApplyStats last_apply_stats() const;

  /// Number of applied update batches since build() (the version tag of
  /// the current weighting). Snapshots carry the epoch they froze.
  std::uint64_t epoch() const;

  /// The base graph the engine was built over (original weights; the
  /// engine's effective weights live beside it — see weight()).
  const Digraph& graph() const;

  /// The separator tree the engine was built against.
  const SeparatorTree& tree() const;

  /// Effective weight per flat arc index (indexed like graph().arcs(),
  /// staged updates included immediately). The span aliases live engine
  /// state: read it only while no update_edge() call can run
  /// concurrently — e.g. under the serving runtime's update lock.
  std::span<const double> weights() const;

  /// Freezes the current weighting — applied updates only; aborts when
  /// updates are staged but not applied — into an immutable, shareable
  /// engine: a fork of the live engine that structurally shares its
  /// bucket values (copy-on-write slabs). Taking it costs O(#slabs)
  /// pointer copies, and later apply() calls copy only the slabs they
  /// actually touch, so readers keep resolving against the snapshot they
  /// hold while successors are built (the epoch-swap contract of the
  /// serving runtime, src/service/). The snapshot shares the build's
  /// immutable augmentation and needs nothing else of this engine: it
  /// stays valid after the engine is destroyed (the graph must still
  /// outlive it). It freezes the current certificate.
  struct Snapshot {
    std::uint64_t epoch = 0;
    SeparatorShortestPaths<TropicalD>::Snapshot engine;
    /// Optional epoch-tagged point-to-point structure, attached by the
    /// serving runtime during successor-snapshot construction (null when
    /// point-to-point serving is off): the hub labels with next hops,
    /// answering st-distance by label merge and st-path by unpacking the
    /// route hop by hop. Immutable and shares the snapshot's lifetime,
    /// so replies built from it stay valid across epoch swaps.
    std::shared_ptr<const RoutingScheme> labels;
    /// Optional (1 + eps)-approximate engine over the same epoch's
    /// weights, attached by the serving runtime when
    /// ServiceOptions::approx is enabled (null otherwise). Immutable
    /// and epoch-consistent with `engine`.
    std::shared_ptr<const ApproxEngine> approx;
  };
  Snapshot snapshot(
      const SeparatorShortestPaths<TropicalD>::Options& options = {}) const;

  /// Current weight of arc u -> v (staged updates included once
  /// applied); +infinity when the arc does not exist. Aborts if u or v
  /// is out of range.
  double weight(Vertex u, Vertex v) const;

  /// Single-source distances under the current weights.
  QueryResult<TropicalD> distances(Vertex source) const;

  /// The build's metadata: immutable, shared by every snapshot. E+'s
  /// current values are
  /// snapshot().engine->shortcut_edges(); the current certificate is
  /// snapshot().engine->cycle_certified().
  const Augmentation& augmentation() const;

 private:
  IncrementalEngine() = default;
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace sepsp
