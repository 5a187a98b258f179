#include "approx/approx.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "approx/sparsify.hpp"
#include "util/check.hpp"

namespace sepsp {

struct ApproxEngine::State {
  Digraph scaled;  // integer-valued weights (stored in doubles)
  double eps = 0.0;
  double unit = 1.0;
  double eps_round = 0.0;  ///< rounding half of the budget
  double delta = 0.0;      ///< pruning half of the budget
  SparsifyStats sparsify;
  std::optional<SeparatorShortestPaths<TropicalI>> engine;
  /// Monotone max of oracle-measured relative errors (stats feedback).
  mutable std::atomic<double> observed{0.0};
};

namespace {

double rescaled(long long v, double unit) {
  return v >= TropicalI::kInf ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(v) * unit;
}

QueryResult<TropicalD> rescaled_result(const QueryResult<TropicalI>& r,
                                       double unit) {
  QueryResult<TropicalD> out;
  out.dist.resize(r.dist.size());
  for (std::size_t v = 0; v < r.dist.size(); ++v) {
    out.dist[v] = rescaled(r.dist[v], unit);
  }
  out.negative_cycle = r.negative_cycle;
  out.edges_scanned = r.edges_scanned;
  out.phases = r.phases;
  return out;
}

}  // namespace

ApproxEngine ApproxEngine::build(const Digraph& g, const SeparatorTree& tree,
                                 const Options& options) {
  std::vector<double> weights;
  weights.reserve(g.num_edges());
  for (const Arc& a : g.arcs()) weights.push_back(a.weight);
  return build_with_weights(g, tree, weights, options);
}

ApproxEngine ApproxEngine::build_with_weights(const Digraph& g,
                                              const SeparatorTree& tree,
                                              std::span<const double> weights,
                                              const Options& options) {
  SEPSP_CHECK(tree.num_graph_vertices() == g.num_vertices());
  SEPSP_TRACE_SPAN("approx.build");
  SEPSP_CHECK_MSG(
      options.build.approx_eps > 0.0 && options.build.approx_eps <= 1.0,
      "ApproxEngine needs Options::Build::approx_eps in (0, 1]");
  SEPSP_CHECK(weights.size() == g.num_edges());

  // The state is heap-allocated before anything is built into it: the
  // engine references state->scaled, so the graph must already sit at
  // its final address when the engine is constructed.
  auto state = std::make_shared<State>();
  State& s = *state;
  s.eps = options.build.approx_eps;
  // Budget split: (1 + eps_r)(1 + delta) = 1 + eps exactly.
  s.eps_round = s.eps / 2.0;
  s.delta = s.eps_round / (1.0 + s.eps_round);

  double min_weight = std::numeric_limits<double>::infinity();
  for (const double w : weights) {
    SEPSP_CHECK_MSG(w > 0, "approx engine needs positive weights");
    min_weight = std::min(min_weight, w);
  }
  s.unit = std::isinf(min_weight) ? 1.0 : s.eps_round * min_weight;

  GraphBuilder builder_scaled(g.num_vertices());
  const std::span<const Arc> arcs = g.arcs();
  const std::span<const Vertex> arc_src = g.arc_sources();
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    // Round *up*: approximations never undercut true distances.
    builder_scaled.add_edge(arc_src[i], arcs[i].to,
                            std::ceil(weights[i] / s.unit));
  }
  s.scaled = std::move(builder_scaled).build();

  Augmentation<TropicalI> aug =
      build_augmentation_sparsified(s.scaled, tree, s.delta, &s.sparsify);

  SeparatorShortestPaths<TropicalI>::Options engine_opts;
  engine_opts.query.detect_negative_cycles = false;  // weights are positive
  s.engine.emplace(SeparatorShortestPaths<TropicalI>::from_augmentation(
      s.scaled, std::move(aug), engine_opts));

  ApproxEngine out;
  out.state_ = std::move(state);
  return out;
}

std::vector<double> ApproxEngine::distances(Vertex source) const {
  std::vector<double> out(state_->scaled.num_vertices());
  distances_into(source, out);
  return out;
}

QueryStats ApproxEngine::distances_into(Vertex source,
                                        std::span<double> out) const {
  const State& s = *state_;
  SEPSP_CHECK(out.size() == s.scaled.num_vertices());
  // Integer scratch row: thread_local so steady-state serving allocates
  // only on a thread's first query (the buffer cannot alias the
  // caller's double span — the value types differ).
  static thread_local std::vector<long long> scratch;
  scratch.resize(out.size());
  const QueryStats stats =
      s.engine->distances_into(source, std::span<long long>(scratch));
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = rescaled(scratch[v], s.unit);
  }
  return stats;
}

std::vector<QueryResult<TropicalD>> ApproxEngine::distances_batch(
    std::span<const Vertex> sources, BatchPolicy policy) const {
  const State& s = *state_;
  const std::vector<QueryResult<TropicalI>> scaled =
      s.engine->distances_batch(sources, policy);
  std::vector<QueryResult<TropicalD>> results(scaled.size());
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    results[i] = rescaled_result(scaled[i], s.unit);
  }
  return results;
}

double ApproxEngine::eps() const { return state_->eps; }
double ApproxEngine::unit() const { return state_->unit; }

double ApproxEngine::certified_error() const {
  const State& s = *state_;
  return (1.0 + s.eps_round) * (1.0 + s.sparsify.delta_used) - 1.0;
}

double ApproxEngine::max_observed_error() const {
  return state_->observed.load(std::memory_order_relaxed);
}

void ApproxEngine::note_observed_error(double rel_error) const {
  std::atomic<double>& obs = state_->observed;
  double cur = obs.load(std::memory_order_relaxed);
  while (rel_error > cur &&
         !obs.compare_exchange_weak(cur, rel_error,
                                    std::memory_order_relaxed)) {
  }
}

std::uint64_t ApproxEngine::eplus_kept() const {
  return state_->sparsify.kept;
}
std::uint64_t ApproxEngine::eplus_dropped() const {
  // Witness-pruned pairs plus hop-compressed B x B pairs: everything
  // the exact builder would have emitted that this build elided.
  return state_->sparsify.dropped + state_->sparsify.hop_compressed;
}

const SeparatorShortestPaths<TropicalI>& ApproxEngine::engine() const {
  return *state_->engine;
}

EngineStats ApproxEngine::stats() const {
  const State& s = *state_;
  EngineStats st = s.engine->stats();
  st.approx_eps = s.eps;
  st.approx_unit = s.unit;
  st.eplus_kept = s.sparsify.kept;
  st.eplus_dropped = s.sparsify.dropped + s.sparsify.hop_compressed;
  st.certified_error = certified_error();
  st.max_observed_error = max_observed_error();
  return st;
}

}  // namespace sepsp
