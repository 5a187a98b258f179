// (1 + eps)-approximate engine: weight rounding + shortcut pruning.
//
// The error budget eps splits in two:
//
//   * Rounding (eps_r = eps / 2): weights are rounded *up* to multiples
//     of the unit u = eps_r * w_min and the whole pipeline runs over
//     the exact integer semiring TropicalI — bit-reproducible across
//     platforms, no floating-point drift. A path of k edges gains at
//     most k * u <= eps_r * dist (Klein–Sairam-style scaling, as in the
//     seed this subsystem replaces).
//   * Pruning (delta = eps_r / (1 + eps_r)): the sparsified Algorithm
//     4.1 build (approx/sparsify.hpp) drops emitted shortcuts that a
//     retained pivot witnesses within relative slack delta, shrinking
//     |E+| and every |E+|-proportional build/query phase.
//
// Composition: (1 + eps_r)(1 + delta) = 1 + eps exactly, so
//     dist(u,v) <= approx(u,v) <= (1 + eps) * dist(u,v)
// for positive weights. The build also reports the tighter factor it
// actually certifies (delta_used = 0 when nothing was pruned).
//
// Queries go through the exact facade over the scaled graph and are
// rescaled. The pruned augmentation has Augmentation::complete cleared,
// so the leveled schedule ends in a fixpoint polish over E u E+:
// pruning can put two consecutive same-level hops on an optimal pruned
// path, which the fixed sweep order alone does not cover. Everything
// else — the buckets, the batched/SIMD TropicalI kernels, the
// structural sharing, the per-engine query counters — is the exact
// machinery, unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "graph/digraph.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

class ApproxEngine {
 public:
  /// Build options only: queries run with the exact facade's default
  /// query options, negative-cycle detection off (positive weights are
  /// a precondition).
  struct Options {
    struct Build {
      /// End-to-end relative-error budget, in (0, 1]; split between
      /// weight rounding and shortcut pruning.
      double approx_eps = 0.0;
    } build;
  };

  /// Preprocesses with budget options.build.approx_eps in (0, 1]. All
  /// weights must be > 0. The caller must keep `g` alive for the
  /// engine's lifetime (the engine snapshots the weights into its own
  /// scaled graph, but not the structure).
  static ApproxEngine build(const Digraph& g, const SeparatorTree& tree,
                            const Options& options);

  /// Like build(), but reads arc weights from `weights` (indexed like
  /// g.arcs()) instead of the graph's own — the serving hook: an
  /// IncrementalEngine's effective weights can be snapshotted into an
  /// approximate engine without materializing a reweighted Digraph.
  static ApproxEngine build_with_weights(const Digraph& g,
                                         const SeparatorTree& tree,
                                         std::span<const double> weights,
                                         const Options& options);

  /// Approximate distances from `source`, rescaled to the original
  /// weighting: dist <= out[v] <= (1 + eps) * dist; +infinity for
  /// unreachable vertices.
  std::vector<double> distances(Vertex source) const;

  /// Allocation-free distances(): fills the caller's buffer (size must
  /// equal num_vertices; prior contents ignored) and returns the run's
  /// counters. The integer scratch row is thread_local, so steady-state
  /// serving does no per-query heap traffic.
  QueryStats distances_into(Vertex source, std::span<double> out) const;

  /// Batched many-source queries through the exact facade's
  /// distances_batch; same BatchPolicy semantics (lanes = 0 picks the
  /// exact facade's default width). Results are rescaled doubles
  /// (reported as TropicalD-valued QueryResults with the usual
  /// zero()-sentinel contract for unreachable vertices).
  std::vector<QueryResult<TropicalD>> distances_batch(
      std::span<const Vertex> sources, BatchPolicy policy = {}) const;

  double eps() const;   ///< the end-to-end budget the build was given
  double unit() const;  ///< the rounding unit actually used

  /// The error factor minus one this build certifies:
  /// (1 + eps_r)(1 + delta_used) - 1 <= eps. Replies served from this
  /// engine are tagged with it.
  double certified_error() const;

  /// Largest relative error measured against an exact oracle and fed
  /// back via note_observed_error (0 until anything was fed back).
  double max_observed_error() const;
  void note_observed_error(double rel_error) const;

  std::uint64_t eplus_kept() const;     ///< finite shortcuts emitted
  std::uint64_t eplus_dropped() const;  ///< shortcuts pruned away

  /// The underlying exact-machinery engine over the scaled graph
  /// (integer distances; tests and benches introspect it).
  const SeparatorShortestPaths<TropicalI>& engine() const;

  /// Exact-facade stats of the underlying engine plus the approx block
  /// (approx_eps, unit, kept/dropped, certified vs. observed error).
  EngineStats stats() const;

 private:
  ApproxEngine() = default;
  struct State;
  std::shared_ptr<const State> state_;
};

}  // namespace sepsp
