#include "graph/digraph.hpp"

#include <algorithm>
#include <cmath>

namespace sepsp {

Vertex Digraph::source_of(std::size_t arc_index) const {
  SEPSP_DCHECK(arc_index < arcs_.size());
  return arc_sources()[arc_index];
}

std::span<const Vertex> Digraph::arc_sources() const {
  ArcSourceIndex& index = *arc_index_;
  std::call_once(index.once, [&] {
    std::vector<Vertex> source(arcs_.size());
    for (Vertex u = 0; u < num_vertices(); ++u) {
      for (std::size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        source[i] = u;
      }
    }
    index.source = std::move(source);
  });
  return index.source;
}

std::vector<EdgeTriple> Digraph::edge_list() const {
  std::vector<EdgeTriple> edges;
  edges.reserve(num_edges());
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (const Arc& a : out(u)) edges.push_back({u, a.to, a.weight});
  }
  return edges;
}

Digraph Digraph::transpose() const {
  GraphBuilder builder(num_vertices());
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (const Arc& a : out(u)) builder.add_edge(a.to, u, a.weight);
  }
  return std::move(builder).build(/*dedup_min=*/false);
}

Digraph::Induced Digraph::induced(std::span<const Vertex> vertices) const {
  Induced result;
  result.local_of.assign(num_vertices(), kInvalidVertex);
  result.global_of.assign(vertices.begin(), vertices.end());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const Vertex v = vertices[i];
    SEPSP_CHECK_MSG(result.local_of[v] == kInvalidVertex,
                    "duplicate vertex in induced() input");
    result.local_of[v] = static_cast<Vertex>(i);
  }
  GraphBuilder builder(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const Vertex u = vertices[i];
    for (const Arc& a : out(u)) {
      const Vertex local_to = result.local_of[a.to];
      if (local_to != kInvalidVertex) {
        builder.add_edge(static_cast<Vertex>(i), local_to, a.weight);
      }
    }
  }
  result.graph = std::move(builder).build(/*dedup_min=*/false);
  return result;
}

bool Digraph::find_arc(Vertex u, Vertex v, double* weight) const {
  const auto arcs = out(u);
  // Arcs are sorted by target; find the first with target v.
  const auto it = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex target) { return a.to < target; });
  if (it == arcs.end() || it->to != v) return false;
  if (weight != nullptr) {
    double best = it->weight;
    for (auto jt = it + 1; jt != arcs.end() && jt->to == v; ++jt) {
      best = std::min(best, jt->weight);
    }
    *weight = best;
  }
  return true;
}

Digraph GraphBuilder::build(bool dedup_min) && {
  std::sort(edges_.begin(), edges_.end(),
            [](const EdgeTriple& a, const EdgeTriple& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.weight < b.weight;
            });
  if (dedup_min) {
    // Sorted by weight within (from, to), so unique keeps the minimum.
    edges_.erase(std::unique(edges_.begin(), edges_.end(),
                             [](const EdgeTriple& a, const EdgeTriple& b) {
                               return a.from == b.from && a.to == b.to;
                             }),
                 edges_.end());
  }
  Digraph g;
  g.offsets_.assign(n_ + 1, 0);
  for (const EdgeTriple& e : edges_) ++g.offsets_[e.from + 1];
  for (std::size_t i = 1; i <= n_; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.arcs_.reserve(edges_.size());
  for (const EdgeTriple& e : edges_) g.arcs_.push_back({e.to, e.weight});
  return g;
}

}  // namespace sepsp
