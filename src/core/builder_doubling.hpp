// Algorithm 4.3: computing E+ by simultaneous path doubling.
//
// Every tree node t keeps a matrix over V_H(t) = S(t) u B(t), initialized
// from direct edges (exact leaf distances at leaves). The main loop
// repeats, for all nodes at once:
//   (1) one path-doubling (semiring squaring) step per node, and
//   (2) a weight pull from each node's children,
// for 2*ceil(log2 n) + 2*d_G iterations (Proposition 4.5 proves this
// suffices; we also stop early at a global fixpoint). Compared with
// Algorithm 4.1 this saves a factor of d_G in parallel time and pays a
// log-factor more work — the trade-off ablated in bench S4.
//
// Node tasks lease scratch arenas (builder_scratch.hpp): the squaring
// product buffer is reused across nodes and iterations, vertex lookups
// are dense-map probes, and the extraction step writes each node's
// S x S and B x B group matrices into the slice the tree's slot plan
// assigns it (no per-node vectors), in the layout of Algorithm 4.1's
// node matrices. That arena becomes the returned engine's E+ values, one
// slot minimum per slot, as in an Algorithm 4.1 build.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/builder_scratch.hpp"
#include "core/engine.hpp"
#include "obs/trace.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"
#include "util/vertex_index.hpp"  // detail::kNpos

namespace sepsp {

/// Options for the doubling builder.
struct DoublingOptions {
  /// Stop as soon as a whole iteration changes nothing (on by default;
  /// the paper's fixed 2 ceil(log n) + 2 d_G count is an upper bound).
  bool early_exit = true;
};

/// Builds G+ with Algorithm 4.3 and returns the engine over it. The
/// tree must decompose g's skeleton. The build certifies nothing: the
/// engine keeps the per-query verification pass.
template <Semiring S>
SeparatorShortestPaths<S> build_augmentation_doubling(
    const Digraph& g, const SeparatorTree& tree,
    const DoublingOptions& options = {}) {
  using detail::kNpos;

  SEPSP_TRACE_SPAN("build.path_doubling");
  const pram::CostScope scope;
  Augmentation aug;
  aug.plan = tree.eplus_plan();
  SEPSP_CHECK_MSG(aug.plan != nullptr,
                  "build_augmentation_doubling: tree not built by "
                  "build_separator_tree");
  aug.height = tree.height();
  aug.ell = leaf_diameter_bound(tree);

  const std::size_t num_nodes = tree.num_nodes();

  detail::ScratchPool<detail::DoublingScratch<S>> scratch_pool([&] {
    return std::make_unique<detail::DoublingScratch<S>>(g.num_vertices());
  });

  // V_H(t) per node and index maps child-VH-index -> parent-VH-index.
  std::vector<std::vector<Vertex>> vh(num_nodes);
  std::vector<Matrix<S>> mat(num_nodes);
  struct ChildMap {
    std::size_t child_id = 0;
    std::vector<std::size_t> to_parent;  // kNpos when absent from parent VH
  };
  std::vector<std::array<ChildMap, 2>> child_maps(num_nodes);

  pram::ThreadPool::global().parallel_for(0, num_nodes, [&](std::size_t id) {
    const DecompNode& t = tree.node(id);
    std::vector<Vertex> verts;
    verts.reserve(t.separator.size() + t.boundary.size());
    std::set_union(t.separator.begin(), t.separator.end(), t.boundary.begin(),
                   t.boundary.end(), std::back_inserter(verts));
    vh[id] = std::move(verts);
  });

  // Step i: initialization.
  pram::ThreadPool::global().parallel_for(0, num_nodes, [&](std::size_t id) {
    auto scratch = scratch_pool.acquire();
    const DecompNode& t = tree.node(id);
    const std::span<const Vertex> verts = vh[id];
    scratch->map0.bind(verts);
    if (t.is_leaf()) {
      // Exact distances inside the leaf, restricted to V_H x V_H.
      const std::span<const Vertex> all = t.vertices;
      scratch->map1.bind(all);
      Matrix<S>& local = scratch->local;
      local.reset(all.size());
      for (std::size_t i = 0; i < all.size(); ++i) {
        local.at(i, i) = S::one();
        for (const Arc& a : g.out(all[i])) {
          const std::size_t j = scratch->map1.find(a.to);
          if (j != kNpos) local.merge(i, j, S::from_weight(a.weight));
        }
      }
      floyd_warshall(local);
      Matrix<S> m(verts.size());
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const std::size_t ii = scratch->map1.find(verts[i]);
        for (std::size_t j = 0; j < verts.size(); ++j) {
          m.at(i, j) = local.at(ii, scratch->map1.find(verts[j]));
        }
      }
      mat[id] = std::move(m);
      return;
    }
    // Internal: direct base arcs between V_H vertices (V_H(t) is a
    // subset of V(t), so such arcs lie in the induced subgraph G(t)).
    Matrix<S> m(verts.size());
    for (std::size_t i = 0; i < verts.size(); ++i) {
      m.at(i, i) = S::one();
      for (const Arc& a : g.out(verts[i])) {
        const std::size_t j = scratch->map0.find(a.to);
        if (j != kNpos) m.merge(i, j, S::from_weight(a.weight));
      }
    }
    mat[id] = std::move(m);
    for (int c = 0; c < 2; ++c) {
      auto& cm = child_maps[id][c];
      cm.child_id = static_cast<std::size_t>(t.child[c]);
      const std::span<const Vertex> cv = vh[cm.child_id];
      cm.to_parent.resize(cv.size());
      for (std::size_t i = 0; i < cv.size(); ++i) {
        cm.to_parent[i] = scratch->map0.find(cv[i]);
      }
    }
  });

  // Step ii: the doubling loop.
  const std::size_t n = g.num_vertices();
  const std::size_t log_n = n < 2 ? 1 : std::bit_width(n - 1);
  const std::size_t max_iterations = 2 * log_n + 2 * aug.height;
  std::vector<std::uint8_t> node_changed(num_nodes, 0);
  std::size_t iterations_run = 0;
  std::uint64_t per_iter_depth = 0;
  for (const auto& verts : vh) {
    const std::size_t k = verts.size();
    per_iter_depth = std::max<std::uint64_t>(
        per_iter_depth, (k < 2 ? 1 : std::bit_width(k - 1)) + 2);
  }

  // Pulls write the parent matrix while reading the child's; running all
  // pulls at once would race (a node is read by its parent while pulled
  // into from its own children). Splitting by level parity synchronizes:
  // within one phase no node is both reader and writee.
  std::array<std::vector<std::size_t>, 2> by_parity;
  for (std::size_t id = 0; id < num_nodes; ++id) {
    if (!tree.node(id).is_leaf()) {
      by_parity[tree.node(id).level % 2].push_back(id);
    }
  }

  // A node whose matrix is idempotent-stable (its last squaring changed
  // nothing and no pull has touched it since) can skip squaring until a
  // pull dirties it again — a large practical saving in late iterations
  // once deep subtrees have converged.
  std::vector<std::uint8_t> dirty(num_nodes, 1);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    SEPSP_TRACE_SPAN("build.path_doubling_iter");  // merged: calls = iterations
    ++iterations_run;
    // (1) one squaring step everywhere (dirty nodes only).
    pram::ThreadPool::global().parallel_for(0, num_nodes, [&](std::size_t id) {
      if (!dirty[id]) {
        node_changed[id] = 0;
        return;
      }
      auto scratch = scratch_pool.acquire();
      node_changed[id] = square_step(mat[id], scratch->square) ? 1 : 0;
      dirty[id] = node_changed[id];
    });
    // (2) pull weights from children.
    auto pull_into = [&](std::size_t id) {
      Matrix<S>& m = mat[id];
      std::uint64_t pulled = 0;
      for (int c = 0; c < 2; ++c) {
        const auto& cm = child_maps[id][c];
        const Matrix<S>& child = mat[cm.child_id];
        const std::size_t ck = cm.to_parent.size();
        pulled += ck * ck;
        for (std::size_t i = 0; i < ck; ++i) {
          const std::size_t pi = cm.to_parent[i];
          if (pi == kNpos) continue;
          for (std::size_t j = 0; j < ck; ++j) {
            const std::size_t pj = cm.to_parent[j];
            if (pj == kNpos) continue;
            if (S::improves(m.at(pi, pj), child.at(i, j))) {
              m.at(pi, pj) = child.at(i, j);
              node_changed[id] = 1;
              dirty[id] = 1;
            }
          }
        }
      }
      pram::CostMeter::charge_work(pulled);
    };
    for (const auto& phase : by_parity) {
      pram::ThreadPool::global().parallel_for(
          0, phase.size(), [&](std::size_t k) { pull_into(phase[k]); });
    }
    bool any_changed = false;
    for (std::size_t id = 0; id < num_nodes; ++id) {
      any_changed = any_changed || node_changed[id];
    }
    if (options.early_exit && !any_changed) break;
  }
  aug.critical_depth = iterations_run * per_iter_depth;

  // Step iii: extract the S x S and B x B group matrices into the slices
  // the tree's slot plan assigns each node; the engine keeps each
  // slot's best and never reads a diagonal cell.
  const std::vector<std::size_t>& offsets = aug.plan->node_offset;
  std::vector<typename S::Value> entries(aug.plan->num_entries());
  pram::ThreadPool::global().parallel_for(0, num_nodes, [&](std::size_t id) {
    auto scratch = scratch_pool.acquire();
    const DecompNode& t = tree.node(id);
    const std::span<const Vertex> verts = vh[id];
    const Matrix<S>& m = mat[id];
    scratch->map0.bind(verts);
    typename S::Value* out = entries.data() + offsets[id];
    auto emit = [&](std::span<const Vertex> group) {
      for (const Vertex u : group) {
        const std::size_t i = scratch->map0.find(u);
        for (const Vertex v : group) {
          *out++ = m.at(i, scratch->map0.find(v));
        }
      }
    };
    emit(t.separator);
    emit(t.boundary);
    SEPSP_DCHECK(out == entries.data() + offsets[id + 1]);
  });

  aug.build_cost = scope.cost();
  return detail::make_engine<S>(g, std::move(aug), /*cycle_certified=*/false,
                                entries);
}

}  // namespace sepsp
