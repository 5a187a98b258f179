#include "approx/approx.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "util/check.hpp"

namespace sepsp {

struct ApproxEngine::State {
  Digraph scaled;  // integer-valued weights (stored in doubles)
  double eps = 0.0;
  double unit = 1.0;
  std::optional<SeparatorShortestPaths<TropicalI>> engine;
  /// Monotone max of oracle-measured relative errors (stats feedback).
  mutable std::atomic<double> observed{0.0};
};

namespace {

double rescaled(long long v, double unit) {
  return v >= TropicalI::kInf ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(v) * unit;
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

  double min_weight = std::numeric_limits<double>::infinity();
  double max_weight = 0.0;
  for (const double w : weights) {
    SEPSP_CHECK_MSG(w > 0, "approx engine needs positive weights");
    min_weight = std::min(min_weight, w);
    max_weight = std::max(max_weight, w);
  }
  s.unit = std::isinf(min_weight) ? 1.0 : s.eps * min_weight;
  // A shortest path has at most n - 1 arcs, each rounded to at most
  // ceil(w_max / u) units. Keeping that product below kInf keeps every
  // rounded weight in long long range and every finite distance below
  // the "unreachable" sentinel (a lone vertex still counts one arc, for
  // its self-loops).
  const double max_arcs =
      static_cast<double>(std::max<std::size_t>(g.num_vertices(), 2) - 1);
  SEPSP_CHECK_MSG(max_arcs * std::ceil(max_weight / s.unit) <
                      static_cast<double>(TropicalI::kInf),
                  "approx engine: (n - 1) * ceil(w_max / u) must stay below "
                  "TropicalI::kInf; raise eps or narrow the weight range");

  GraphBuilder builder_scaled(g.num_vertices());
  const std::span<const Arc> arcs = g.arcs();
  const std::span<const Vertex> arc_src = g.arc_sources();
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    // Round *up*: approximations never undercut true distances.
    builder_scaled.add_edge(arc_src[i], arcs[i].to,
                            std::ceil(weights[i] / s.unit));
  }
  s.scaled = std::move(builder_scaled).build();
  s.engine.emplace(SeparatorShortestPaths<TropicalI>::build(s.scaled, tree));

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

void ApproxEngine::distances_batch(std::span<const Vertex> sources,
                                   std::span<const std::span<double>> rows,
                                   std::span<QueryStats> stats,
                                   BatchPolicy policy) const {
  const State& s = *state_;
  const std::size_t n = s.scaled.num_vertices();
  SEPSP_CHECK(rows.size() == sources.size());
  // Every lane's integer distances go into one buffer on this thread;
  // the rescale writes them straight into the caller's rows.
  std::vector<long long> scaled(sources.size() * n);
  std::vector<std::span<long long>> scaled_rows;
  scaled_rows.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SEPSP_CHECK(rows[i].size() == n);
    scaled_rows.emplace_back(scaled.data() + i * n, n);
  }
  s.engine->distances_batch(sources, scaled_rows, stats, policy);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (std::size_t v = 0; v < n; ++v) {
      rows[i][v] = rescaled(scaled_rows[i][v], s.unit);
    }
  }
}

double ApproxEngine::eps() const { return state_->eps; }
double ApproxEngine::unit() const { return state_->unit; }

double ApproxEngine::certified_error() const { return state_->eps; }

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

const SeparatorShortestPaths<TropicalI>& ApproxEngine::engine() const {
  return *state_->engine;
}

EngineStats ApproxEngine::stats() const {
  const State& s = *state_;
  EngineStats st = s.engine->stats();
  st.approx_eps = s.eps;
  st.approx_unit = s.unit;
  st.certified_error = certified_error();
  st.max_observed_error = max_observed_error();
  return st;
}

}  // namespace sepsp
