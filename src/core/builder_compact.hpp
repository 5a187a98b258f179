// Remark 4.4: the compact shared-pairing variant of Algorithm 4.3.
//
// Algorithm 4.3 keeps one matrix per tree node and re-pairs the same
// edge pair (u1,u2),(u2,u3) once per node containing all three vertices.
// The remark observes that it suffices to keep a SINGLE weight per edge
// of U_t E_H(t) and one pairing entry per distinct triple
//   { (u1,u2,u3) : exists t with {u1,u2,u3} in V_H(t) },
// computed once up front. Each doubling iteration then costs
// O(#distinct triples) instead of sum_t |V_H(t)|^3.
//
// The shared weights dominate the per-node weights from below while
// never undercutting true distances (every relaxation composes walks
// certified inside some node, hence real walks in G), so the resulting
// shortcut set satisfies Theorem 3.1's requirements: value(u,v) is
// >= dist_G(u,v) and <= dist_{G(t)}(u,v) for every node t owning the
// pair. Tests verify both inequalities and end-to-end query equality.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/augment.hpp"
#include "core/builder_doubling.hpp"
#include "util/vertex_index.hpp"  // detail::index_of
#include "semiring/matrix.hpp"

namespace sepsp {

/// Builds G+ per Remark 4.4 and returns the engine over it. Semantics:
/// same distances as the other builders; individual shortcut values may
/// be tighter (closer to dist_G) than the per-node dist_{G(t)}. Like
/// Algorithm 4.3 it certifies nothing.
template <Semiring S>
SeparatorShortestPaths<S> build_augmentation_compact(
    const Digraph& g, const SeparatorTree& tree,
    const DoublingOptions& options = {}) {
  using detail::index_of;
  using detail::kNpos;
  using Value = typename S::Value;

  const pram::CostScope scope;
  Augmentation aug;
  aug.plan = tree.eplus_plan();
  SEPSP_CHECK_MSG(aug.plan != nullptr,
                  "build_augmentation_compact: tree not built by "
                  "build_separator_tree");
  aug.height = tree.height();
  aug.ell = leaf_diameter_bound(tree);

  const std::size_t num_nodes = tree.num_nodes();

  // V_H(t) per node.
  std::vector<std::vector<Vertex>> vh(num_nodes);
  for (std::size_t id = 0; id < num_nodes; ++id) {
    const DecompNode& t = tree.node(id);
    std::set_union(t.separator.begin(), t.separator.end(), t.boundary.begin(),
                   t.boundary.end(), std::back_inserter(vh[id]));
  }

  // --- the single shared edge table -------------------------------------
  auto pack = [](Vertex a, Vertex b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  std::unordered_map<std::uint64_t, std::uint32_t> edge_index;
  std::vector<Value> weight;            // by edge index
  std::vector<std::pair<Vertex, Vertex>> endpoints;
  auto intern = [&](Vertex a, Vertex b) -> std::uint32_t {
    const auto [it, inserted] =
        edge_index.try_emplace(pack(a, b),
                               static_cast<std::uint32_t>(weight.size()));
    if (inserted) {
      weight.push_back(a == b ? S::one() : S::zero());
      endpoints.emplace_back(a, b);
    }
    return it->second;
  };

  // Register all edges node by node; collect the distinct pairing
  // triples as (edge12, edge23, edge13) index triples.
  struct Triple {
    std::uint32_t e12, e23, e13;
  };
  std::vector<Triple> triples;
  std::unordered_set<std::uint64_t> seen_pairings;
  std::uint64_t enumerated = 0;
  for (std::size_t id = 0; id < num_nodes; ++id) {
    const auto& verts = vh[id];
    const std::size_t k = verts.size();
    std::vector<std::uint32_t> local_edges(k * k);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        local_edges[i * k + j] = intern(verts[i], verts[j]);
      }
    }
    enumerated += k * k * k;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t mid = 0; mid < k; ++mid) {
        const std::uint32_t e1 = local_edges[i * k + mid];
        for (std::size_t j = 0; j < k; ++j) {
          const std::uint32_t e2 = local_edges[mid * k + j];
          const std::uint64_t key =
              (static_cast<std::uint64_t>(e1) << 32) | e2;
          if (seen_pairings.insert(key).second) {
            triples.push_back({e1, e2, local_edges[i * k + j]});
          }
        }
      }
    }
  }
  seen_pairings.clear();
  pram::CostMeter::charge_work(enumerated);  // one-time table construction

  // --- initialization ----------------------------------------------------
  // Direct base arcs (any node containing both endpoints also contains
  // the arc: V_H(t) is a subset of V(t)).
  for (const auto& [key, idx] : edge_index) {
    const auto [u, v] = endpoints[idx];
    double w = 0;
    if (u != v && g.find_arc(u, v, &w)) {
      weight[idx] = S::combine(weight[idx], S::from_weight(w));
    }
  }
  // Leaves: exact distances (step i of Algorithm 4.3).
  for (std::size_t id = 0; id < num_nodes; ++id) {
    const DecompNode& t = tree.node(id);
    if (!t.is_leaf()) continue;
    const std::span<const Vertex> all = t.vertices;
    Matrix<S> local(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      local.at(i, i) = S::one();
      for (const Arc& a : g.out(all[i])) {
        const std::size_t j = index_of(all, a.to);
        if (j != kNpos) local.merge(i, j, S::from_weight(a.weight));
      }
    }
    floyd_warshall(local);
    for (const Vertex u : vh[id]) {
      const std::size_t iu = index_of(all, u);
      for (const Vertex v : vh[id]) {
        const std::uint32_t e = edge_index.at(pack(u, v));
        weight[e] = S::combine(weight[e], local.at(iu, index_of(all, v)));
      }
    }
  }

  // --- doubling iterations over the shared triples -----------------------
  const std::size_t n = g.num_vertices();
  const std::size_t log_n = n < 2 ? 1 : std::bit_width(n - 1);
  const std::size_t max_iterations = 2 * log_n + 2 * aug.height;
  std::size_t iterations_run = 0;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++iterations_run;
    bool changed = false;
    for (const Triple& t : triples) {
      const Value via = S::extend(weight[t.e12], weight[t.e23]);
      if (S::improves(weight[t.e13], via)) {
        weight[t.e13] = via;
        changed = true;
      }
    }
    pram::CostMeter::charge_work(triples.size());
    pram::CostMeter::charge_depth(1);
    if (options.early_exit && !changed) break;
  }
  aug.critical_depth = iterations_run;  // one synchronous phase per round

  // --- extraction: E_t = S x S u B x B per node --------------------------
  // As the plan lays out each node's group matrices, diagonals included
  // (never read), so the engine takes each slot's best.
  std::vector<Value> entries;
  entries.reserve(aug.plan->num_entries());
  for (std::size_t id = 0; id < num_nodes; ++id) {
    const DecompNode& t = tree.node(id);
    auto emit = [&](std::span<const Vertex> group) {
      for (const Vertex u : group) {
        for (const Vertex v : group) {
          entries.push_back(weight[edge_index.at(pack(u, v))]);
        }
      }
    };
    emit(t.separator);
    emit(t.boundary);
  }
  aug.build_cost = scope.cost();
  return detail::make_engine<S>(g, std::move(aug), /*cycle_certified=*/false,
                                entries);
}

}  // namespace sepsp
