// (1 + eps)-approximate engine: the exact engine over rounded weights.
//
// Weights are rounded *up* to multiples of the unit u = eps * w_min and
// the exact TropicalI engine is built over the rounded graph —
// bit-reproducible across platforms, no floating-point drift. Its E+
// and its distances are those of SeparatorShortestPaths<TropicalI>
// over that graph, bit for bit.
//
// Guarantee, for positive weights: rounding up never undercuts, and a
// shortest path of k arcs has k <= dist / w_min (every arc weighs at
// least w_min), so rounding adds at most k * u <= eps * dist:
//     dist(s,t) <= approx(s,t) <= (1 + eps) * dist(s,t).
// The Floyd–Warshall build certifies the positive rounded weights free
// of negative cycles, so queries skip the verification pass.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "graph/digraph.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

class ApproxEngine {
 public:
  /// Build options only: queries run with the exact engine's default
  /// query options (the build certifies the rounded weights cycle-free,
  /// so no query pays the verification pass).
  struct Options {
    struct Build {
      /// End-to-end relative-error budget, in (0, 1]; the whole of it
      /// goes to weight rounding.
      double approx_eps = 0.0;
    } build;
  };

  /// Preprocesses with budget options.build.approx_eps in (0, 1]. All
  /// weights must be > 0, and every rounded distance must stay below
  /// TropicalI::kInf: (n - 1) * ceil(w_max / u) < kInf. The caller must keep `g` alive for the
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

  /// Batched many-source queries through the exact engine's output-form
  /// distances_batch; same BatchPolicy semantics (lanes = 0 picks the
  /// exact engine's default width). rows[i] (size num_vertices)
  /// receives sources[i]'s rescaled distances (+infinity = unreachable)
  /// and stats[i] its counters. The integer lanes pass through one
  /// buffer allocated on the calling thread.
  void distances_batch(std::span<const Vertex> sources,
                       std::span<const std::span<double>> rows,
                       std::span<QueryStats> stats,
                       BatchPolicy policy = {}) const;

  double eps() const;   ///< the end-to-end budget the build was given
  double unit() const;  ///< the rounding unit u = eps * w_min

  /// The error factor minus one this build certifies: eps. Replies
  /// served from this engine are tagged with it.
  double certified_error() const;

  /// Largest relative error measured against an exact oracle and fed
  /// back via note_observed_error (0 until anything was fed back).
  double max_observed_error() const;
  void note_observed_error(double rel_error) const;

  /// The underlying exact-machinery engine over the scaled graph
  /// (integer distances; tests and benches introspect it).
  const SeparatorShortestPaths<TropicalI>& engine() const;

  /// Exact-engine stats of the underlying engine plus the approx block
  /// (approx_eps, unit, certified vs. observed error).
  EngineStats stats() const;

 private:
  ApproxEngine() = default;
  struct State;
  std::shared_ptr<const State> state_;
};

}  // namespace sepsp
