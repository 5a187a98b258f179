#include "planar/qface.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>

#include "baseline/bellman_ford.hpp"
#include "separator/finders.hpp"
#include "util/check.hpp"

namespace sepsp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

/// Immutable preprocessed state; addresses are stable for its lifetime.
struct QFacePipeline::State {
  const HammockGraph* hg = nullptr;
  std::vector<Vertex> attach_global;  ///< G' local id -> global id
  std::vector<Vertex> attach_local;   ///< global id -> G' local id / invalid
  Digraph gprime;
  SeparatorTree tree;
  std::optional<SeparatorShortestPaths<TropicalD>> engine;

  /// Per-hammock induced subgraphs (forward only; the reverse sweep uses
  /// the transpose) and distance tables indexed
  /// [hammock][attachment 0..3][local vertex index].
  std::vector<Digraph::Induced> local;
  std::vector<std::array<std::vector<double>, 4>> from_attach;
  std::vector<std::array<std::vector<double>, 4>> to_attach;

  /// All-pairs distances on G' (row-major |V(G')| x |V(G')|), the
  /// "alternate encoding" of Frederickson used by the k-pair oracle.
  std::vector<double> gprime_apsp;
  double gprime_at(Vertex a, Vertex b) const {
    return gprime_apsp[static_cast<std::size_t>(a) * attach_global.size() +
                       b];
  }
};

QFacePipeline QFacePipeline::build(const HammockGraph& hg) {
  auto state = std::make_shared<State>();
  State& s = *state;
  s.hg = &hg;
  const Digraph& g = hg.graph;
  const std::size_t n = g.num_vertices();

  // G' vertex set: all attachment vertices, remapped to dense local ids.
  s.attach_global = hg.attachment_vertices();
  s.attach_local.assign(n, kInvalidVertex);
  for (std::size_t i = 0; i < s.attach_global.size(); ++i) {
    s.attach_local[s.attach_global[i]] = static_cast<Vertex>(i);
  }

  // Per-hammock subgraphs and attachment distance tables.
  const std::size_t q = hg.num_hammocks();
  s.local.resize(q);
  s.from_attach.resize(q);
  s.to_attach.resize(q);
  GraphBuilder gp_builder(s.attach_global.size());
  for (std::size_t h = 0; h < q; ++h) {
    const Hammock& ham = hg.hammocks[h];
    s.local[h] = g.induced(ham.vertices);
    const Digraph reversed = s.local[h].graph.transpose();
    for (int k = 0; k < 4; ++k) {
      const Vertex a_local = s.local[h].local_of[ham.attachments[k]];
      SEPSP_CHECK(a_local != kInvalidVertex);
      BellmanFordResult fwd = bellman_ford(s.local[h].graph, a_local);
      SEPSP_CHECK_MSG(!fwd.negative_cycle, "negative cycle inside hammock");
      BellmanFordResult rev = bellman_ford(reversed, a_local);
      s.from_attach[h][k] = std::move(fwd.dist);
      s.to_attach[h][k] = std::move(rev.dist);
    }
    // The 4x4 in-hammock distance clique of G'.
    for (int k = 0; k < 4; ++k) {
      for (int k2 = 0; k2 < 4; ++k2) {
        if (k == k2) continue;
        const Vertex to_local = s.local[h].local_of[ham.attachments[k2]];
        const double d = s.from_attach[h][k][to_local];
        if (d < kInf) {
          gp_builder.add_edge(s.attach_local[ham.attachments[k]],
                              s.attach_local[ham.attachments[k2]], d);
        }
      }
    }
  }
  // Cross-hammock base edges: in a hammock decomposition they connect
  // attachment vertices only. An edge is *internal* when some single
  // hammock contains both endpoints (hammock_of alone is not enough:
  // hammocks may share attachment vertices, and an in-body edge at a
  // shared vertex would look cross-assigned).
  auto internal_to = [&](std::uint32_t h, Vertex u, Vertex v) {
    return s.local[h].local_of[u] != kInvalidVertex &&
           s.local[h].local_of[v] != kInvalidVertex;
  };
  for (Vertex u = 0; u < n; ++u) {
    for (const Arc& a : g.out(u)) {
      if (internal_to(hg.hammock_of[u], u, a.to) ||
          internal_to(hg.hammock_of[a.to], u, a.to)) {
        continue;
      }
      SEPSP_CHECK_MSG(s.attach_local[u] != kInvalidVertex &&
                          s.attach_local[a.to] != kInvalidVertex,
                      "cross-hammock edge between non-attachment vertices");
      gp_builder.add_edge(s.attach_local[u], s.attach_local[a.to], a.weight);
    }
  }
  s.gprime = std::move(gp_builder).build();

  // Decompose and preprocess G' (planar; vertices inherit coordinates).
  std::vector<std::array<double, 3>> gp_coords(s.attach_global.size());
  for (std::size_t i = 0; i < s.attach_global.size(); ++i) {
    gp_coords[i] = hg.coords[s.attach_global[i]];
  }
  const Skeleton gp_skel(s.gprime);
  s.tree = build_separator_tree(gp_skel,
                                make_geometric_finder(std::move(gp_coords)));
  s.engine.emplace(SeparatorShortestPaths<TropicalD>::build(s.gprime, s.tree));

  // All-pairs table on G' for the k-pair oracle: O(q) engine queries on
  // the O(q)-sized reduced graph.
  const std::size_t aq = s.attach_global.size();
  s.gprime_apsp.assign(aq * aq, kInf);
  for (Vertex a = 0; a < aq; ++a) {
    const QueryResult<TropicalD> row = s.engine->distances(a);
    SEPSP_CHECK(!row.negative_cycle);
    std::copy(row.dist.begin(), row.dist.end(),
              s.gprime_apsp.begin() + static_cast<std::ptrdiff_t>(a * aq));
  }

  QFacePipeline p;
  p.state_ = std::move(state);
  return p;
}

std::vector<double> QFacePipeline::distance_pairs(
    std::span<const std::pair<Vertex, Vertex>> pairs) const {
  const State& s = *state_;
  const HammockGraph& hg = *s.hg;
  std::vector<double> out;
  out.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    SEPSP_CHECK(u < hg.graph.num_vertices() && v < hg.graph.num_vertices());
    const std::uint32_t hu = hg.hammock_of[u];
    const std::uint32_t hv = hg.hammock_of[v];
    const Vertex lu = s.local[hu].local_of[u];
    const Vertex lv = s.local[hv].local_of[v];
    // Via attachments: u -> a (in-hammock) -> b (G') -> v (in-hammock).
    double best = kInf;
    for (int ka = 0; ka < 4; ++ka) {
      const double head = s.to_attach[hu][ka][lu];
      if (head >= kInf) continue;
      const Vertex a = s.attach_local[hg.hammocks[hu].attachments[ka]];
      for (int kb = 0; kb < 4; ++kb) {
        const double tail = s.from_attach[hv][kb][lv];
        if (tail >= kInf) continue;
        const Vertex b = s.attach_local[hg.hammocks[hv].attachments[kb]];
        const double mid = s.gprime_at(a, b);
        if (mid < kInf) best = std::min(best, head + mid + tail);
      }
    }
    if (hu == hv) {
      // Paths that never leave the hammock: one local sweep.
      const BellmanFordResult sweep = bellman_ford(s.local[hu].graph, lu);
      best = std::min(best, sweep.dist[lv]);
    }
    out.push_back(best);
  }
  return out;
}

std::size_t QFacePipeline::reduced_vertices() const {
  return state_->gprime.num_vertices();
}
std::size_t QFacePipeline::reduced_edges() const {
  return state_->gprime.num_edges();
}

std::vector<double> QFacePipeline::distances(Vertex source) const {
  const State& s = *state_;
  const HammockGraph& hg = *s.hg;
  const std::size_t n = hg.graph.num_vertices();
  SEPSP_CHECK(source < n);
  const std::uint32_t hs = hg.hammock_of[source];
  const Hammock& src_ham = hg.hammocks[hs];
  const Vertex src_local = s.local[hs].local_of[source];

  // 1. In-hammock sweep from the source (covers paths that never leave).
  const BellmanFordResult local_sweep =
      bellman_ford(s.local[hs].graph, src_local);
  SEPSP_CHECK(!local_sweep.negative_cycle);

  // 2. Engine run on G', seeded with source -> attachment offsets.
  std::vector<std::pair<Vertex, double>> seeds;
  for (int k = 0; k < 4; ++k) {
    const double d = s.to_attach[hs][k][src_local];
    if (d < kInf) {
      seeds.emplace_back(s.attach_local[src_ham.attachments[k]], d);
    }
  }
  const QueryResult<TropicalD> gp = s.engine->distances_seeded(seeds);
  SEPSP_CHECK_MSG(!gp.negative_cycle, "negative cycle in reduced graph");

  // 3. Combine: dist(v) = min_k  gp[attach_k(h(v))] + in-hammock tail.
  std::vector<double> dist(n, kInf);
  for (std::size_t h = 0; h < hg.num_hammocks(); ++h) {
    const Hammock& ham = hg.hammocks[h];
    for (std::size_t i = 0; i < ham.vertices.size(); ++i) {
      const Vertex v = ham.vertices[i];
      const Vertex v_local = s.local[h].local_of[v];
      double best = kInf;
      for (int k = 0; k < 4; ++k) {
        const double head = gp.dist[s.attach_local[ham.attachments[k]]];
        const double tail = s.from_attach[h][k][v_local];
        if (head < kInf && tail < kInf) {
          best = std::min(best, head + tail);
        }
      }
      dist[v] = best;
    }
  }
  for (std::size_t i = 0; i < src_ham.vertices.size(); ++i) {
    const Vertex v = src_ham.vertices[i];
    dist[v] = std::min(dist[v], local_sweep.dist[s.local[hs].local_of[v]]);
  }
  return dist;
}

double QFacePipeline::distance(Vertex u, Vertex v) const {
  return distances(u)[v];
}

}  // namespace sepsp
