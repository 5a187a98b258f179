// Weighted directed graph in compressed-sparse-row form.
//
// Vertices are dense ids [0, n). Weights are real-valued (double); the
// semiring layer (src/semiring) maps them into other path algebras, so
// one graph instance serves shortest-path, reachability and bottleneck
// computations (paper remark iv: the decomposition depends only on the
// unweighted skeleton).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace sepsp {

using Vertex = std::uint32_t;
constexpr Vertex kInvalidVertex = static_cast<Vertex>(-1);

/// A directed edge as stored in adjacency lists: target + weight.
struct Arc {
  Vertex to = 0;
  double weight = 0.0;
  bool operator==(const Arc&) const = default;
};

/// A directed edge with explicit endpoints, used by builders.
struct EdgeTriple {
  Vertex from = 0;
  Vertex to = 0;
  double weight = 0.0;
  bool operator==(const EdgeTriple&) const = default;
};

/// Immutable CSR digraph. Construct via GraphBuilder.
class Digraph {
 public:
  Digraph() = default;

  std::size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const { return arcs_.size(); }

  /// Out-arcs of u, ordered by target id.
  std::span<const Arc> out(Vertex u) const {
    SEPSP_DCHECK(u < num_vertices());
    return {arcs_.data() + offsets_[u], arcs_.data() + offsets_[u + 1]};
  }

  std::size_t out_degree(Vertex u) const { return out(u).size(); }

  /// All arcs grouped by source; arc i has source `source_of(i)`.
  std::span<const Arc> arcs() const { return arcs_; }

  /// Source vertex of arc index i: O(1) lookup in the memoized
  /// arc→source index (built on first use; the seed's binary search
  /// over offsets cost O(log n) per call).
  Vertex source_of(std::size_t arc_index) const;

  /// The full arc→source map: entry i is the source of arcs()[i].
  /// Built lazily once per graph structure (thread-safe); copies of the
  /// graph share the memoized index. Callers iterating arcs() resolve
  /// sources with one indexed load per arc instead of a binary search.
  std::span<const Vertex> arc_sources() const;

  /// Edge list reconstruction (m triples, grouped by source).
  std::vector<EdgeTriple> edge_list() const;

  /// Graph with every arc reversed (weights preserved).
  Digraph transpose() const;

  /// Subgraph induced by `vertices` (need not be sorted; duplicates are
  /// an error). See InducedSubgraph below. Declared out-of-class because
  /// the result holds a Digraph by value.
  struct Induced;
  Induced induced(std::span<const Vertex> vertices) const;

  /// True if (u, v) is an arc; if so, *weight receives the minimum weight
  /// among parallel (u, v) arcs.
  bool find_arc(Vertex u, Vertex v, double* weight = nullptr) const;

 private:
  friend class GraphBuilder;

  /// Memoized arc→source map (see arc_sources()). Held behind a
  /// shared_ptr so the defaulted copy/move members stay valid — the
  /// graph is immutable once built, so copies sharing the index (and
  /// its std::once_flag, which is itself neither copyable nor movable)
  /// is exactly right.
  struct ArcSourceIndex {
    std::once_flag once;
    std::vector<Vertex> source;
  };

  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<Arc> arcs_;             // size m, sorted by (source, target)
  std::shared_ptr<ArcSourceIndex> arc_index_ =
      std::make_shared<ArcSourceIndex>();
};

/// Result of Digraph::induced(): the subgraph plus both id mappings.
struct Digraph::Induced {
  Digraph graph;
  std::vector<Vertex> global_of;  ///< local id -> original id
  std::vector<Vertex> local_of;   ///< original id -> local id or invalid
};

/// Accumulates edges, then freezes them into a Digraph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices) : n_(num_vertices) {}

  std::size_t num_vertices() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  /// Appends the directed edge u -> v.
  void add_edge(Vertex u, Vertex v, double weight) {
    SEPSP_DCHECK(u < n_ && v < n_);
    edges_.push_back({u, v, weight});
  }

  /// Appends u -> v and v -> u with the same weight.
  void add_bidirectional(Vertex u, Vertex v, double weight) {
    add_edge(u, v, weight);
    add_edge(v, u, weight);
  }

  void add_edges(std::span<const EdgeTriple> edges) {
    edges_.insert(edges_.end(), edges.begin(), edges.end());
  }

  /// Builds the CSR graph. Parallel edges are merged keeping the minimum
  /// weight when `dedup_min` (the correct reduction for all semirings we
  /// instantiate: min-plus, Boolean, max-min on costs mapped accordingly).
  Digraph build(bool dedup_min = true) &&;

 private:
  std::size_t n_;
  std::vector<EdgeTriple> edges_;
};

}  // namespace sepsp
