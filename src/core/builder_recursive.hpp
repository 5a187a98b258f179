// Algorithm 4.1: computing E+ leaves-up.
//
// Nodes are processed level by level from the deepest level to the root;
// within a level all nodes are processed in parallel. A node t keeps a
// |B(t)| x |B(t)| matrix of exact distances in G(t) between its boundary
// vertices; the parent combines its two children's matrices:
//
//   i.   H_S: complete graph on S(t), entry = best child distance
//   ii.  APSP closure of H_S                      -> S x S shortcuts
//   iii. H: B->S and S->B entries from children
//   iv.  3-limited composition  B->S (x) H_S* (x) S->B
//   v.   boundary matrix = min(3-limited, direct child distance)
//                                                 -> B x B shortcuts
//
// Work per node: O(|S|^3 log|S| + |B|^2 |S| + |B| |S|^2) with the
// polylog-depth squaring closure (the paper's Table-1 bound); the
// sequential-k Floyd–Warshall closure saves the log factor of work at
// depth |S| (ablated in bench S4). Every engine closes H_S with
// Floyd–Warshall, so all of them emit the same E+ bits; the squaring
// closure serves the benches that reproduce the paper's depth.
//
// Steps i-v exist once, in detail::node_step, which writes the node's
// complete S x S and B x B pair sets into its slice of the output. The
// exact build (detail::run_algorithm41) sizes every node's slice up
// front, runs the levels deepest first with the nodes of a level in
// parallel, and accounts the critical depth; the incremental engine
// (core/incremental.cpp) reruns node_step into scratch and diffs the
// result against the retained entries.
//
// Node tasks lease a scratch arena (builder_scratch.hpp): intermediate
// matrices reuse storage across nodes, vertex->index lookups are O(1)
// dense-map probes instead of per-arc binary searches, and shortcut
// edges are written straight into their pre-computed slice of the final
// array (no per-node vectors, no concat pass). Only the cross-level
// boundary matrices (`bnd`) own long-lived storage.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "core/augment.hpp"
#include "core/builder_scratch.hpp"
#include "obs/trace.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"

namespace sepsp {

/// APSP kernel used inside the builders.
enum class ClosureKind {
  kSquaring,       ///< repeated squaring: polylog depth, +log work
  kFloydWarshall,  ///< sequential-in-k: minimal work, linear depth
};

namespace detail {

template <Semiring S>
void run_closure(Matrix<S>& m, ClosureKind kind, Matrix<S>& scratch) {
  if (kind == ClosureKind::kSquaring) {
    closure_by_squaring_inplace(m, scratch);
  } else {
    floyd_warshall(m);
  }
}

/// Turns per-node shortcut counts into exclusive-prefix-sum offsets and
/// returns the total; node i then owns slice [offsets[i], offsets[i+1]).
inline std::size_t offsets_from_counts(std::vector<std::size_t>& counts) {
  std::size_t total = 0;
  for (auto& c : counts) {
    const std::size_t here = c;
    c = total;
    total += here;
  }
  counts.push_back(total);
  return total;
}

/// Shortcuts a group of k mutually-connected vertices emits: all ordered
/// pairs minus the diagonal.
inline std::size_t pair_count(std::size_t k) { return k * (k - 1); }

/// Writes all ordered pairs (i != j) of `verts` with values m(i, j),
/// i-major, and returns past-the-end.
template <Semiring S>
Shortcut<S>* emit_pairs(std::span<const Vertex> verts, const Matrix<S>& m,
                        Shortcut<S>* out) {
  for (std::size_t i = 0; i < verts.size(); ++i) {
    for (std::size_t j = 0; j < verts.size(); ++j) {
      if (i != j) *out++ = {verts[i], verts[j], m.at(i, j)};
    }
  }
  return out;
}

/// True when some diagonal cell of the square matrix `m` is strictly
/// better than one() (below 0 in the tropical semirings; never for
/// BooleanSR or BottleneckSR). Exact comparison, no tolerance: rounding
/// can only report a cycle that is not there, which keeps the query-time
/// verification pass on.
template <Semiring S>
bool has_negative_diagonal(const Matrix<S>& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (S::improves(S::one(), m.at(i, i))) return true;
  }
  return false;
}

/// Steps i-v of Algorithm 4.1 for node `id`. Reads the children's
/// boundary matrices from `bnd`, writes the node's own into `bm` and its
/// complete S x S and B x B pair sets, i-major, into `out`
/// (pair_count(|S|) + pair_count(|B|) entries). Leaves run Floyd–Warshall on the
/// induced subgraph, whose arc weights come from weight_of(const Arc&);
/// internal nodes close H_S with `closure`. Returns true when the
/// node's closure — the leaf's Floyd–Warshall matrix or the closed H_S —
/// has a diagonal cell strictly better than one(): a negative closed
/// walk in G. With Floyd–Warshall closures, G has a negative cycle
/// exactly when some node returns true (docs/ALGORITHMS.md, "The
/// negative-cycle certificate").
template <Semiring S, typename WeightOf>
bool node_step(const Digraph& g, const SeparatorTree& tree, std::size_t id,
               const std::vector<Matrix<S>>& bnd, ClosureKind closure,
               const WeightOf& weight_of, RecursiveScratch<S>& sc,
               Matrix<S>& bm, std::span<Shortcut<S>> out) {
  constexpr std::size_t kNpos = VertexIndexMap::kNpos;
  const DecompNode& t = tree.node(id);
  const std::span<const Vertex> st = t.separator;
  const std::span<const Vertex> bt = t.boundary;

  if (t.is_leaf()) {
    // Exact APSP on the (constant-size) induced subgraph.
    const std::span<const Vertex> verts = t.vertices;
    sc.map0.bind(verts);
    Matrix<S>& local = sc.local;
    local.reset(verts.size());
    for (std::size_t i = 0; i < verts.size(); ++i) {
      local.at(i, i) = S::one();
      for (const Arc& a : g.out(verts[i])) {
        const std::size_t j = sc.map0.find(a.to);
        if (j != kNpos) local.merge(i, j, S::from_weight(weight_of(a)));
      }
    }
    floyd_warshall(local);  // leaves are O(1)-sized; any kernel is fine
    bm.reset(bt.size());
    for (std::size_t p = 0; p < bt.size(); ++p) {
      const std::size_t ip = sc.map0.find(bt[p]);
      for (std::size_t q = 0; q < bt.size(); ++q) {
        bm.at(p, q) = local.at(ip, sc.map0.find(bt[q]));
      }
    }
    // A leaf has no separator: its emission is the B x B set alone.
    SEPSP_DCHECK(out.size() == pair_count(bt.size()));
    emit_pairs(bt, bm, out.data());
    return has_negative_diagonal(local);
  }

  // Index of each separator / boundary vertex inside each child's
  // boundary list (kNpos when the vertex is not in that child).
  const std::array<const Matrix<S>*, 2> child = {
      &bnd[static_cast<std::size_t>(t.child[0])],
      &bnd[static_cast<std::size_t>(t.child[1])]};
  sc.map0.bind(tree.node(static_cast<std::size_t>(t.child[0])).boundary);
  sc.map1.bind(tree.node(static_cast<std::size_t>(t.child[1])).boundary);
  const VertexIndexMap* child_map[2] = {&sc.map0, &sc.map1};
  for (int c = 0; c < 2; ++c) {
    auto& s_in_child = sc.s_in_child[c];
    s_in_child.resize(st.size());
    for (std::size_t i = 0; i < st.size(); ++i) {
      s_in_child[i] = child_map[c]->find(st[i]);
      SEPSP_CHECK_MSG(s_in_child[i] != kNpos,
                      "separator vertex missing from child boundary");
    }
    auto& b_in_child = sc.b_in_child[c];
    b_in_child.resize(bt.size());
    for (std::size_t p = 0; p < bt.size(); ++p) {
      b_in_child[p] = child_map[c]->find(bt[p]);
    }
  }

  // Step i: H_S from the children's boundary distances.
  Matrix<S>& hs = sc.hs;
  hs.reset(st.size());
  for (int c = 0; c < 2; ++c) {
    const Matrix<S>& cm = *child[c];
    const auto& s_in_child = sc.s_in_child[c];
    for (std::size_t i = 0; i < st.size(); ++i) {
      for (std::size_t j = 0; j < st.size(); ++j) {
        hs.merge(i, j, cm.at(s_in_child[i], s_in_child[j]));
      }
    }
  }
  // Step ii: closure -> exact S x S distances in G(t).
  run_closure(hs, closure, sc.square);

  Matrix<S>& b_to_s = sc.b_to_s;
  Matrix<S>& s_to_b = sc.s_to_b;
  b_to_s.reset(bt.size(), st.size());
  s_to_b.reset(st.size(), bt.size());
  bm.reset(bt.size());
  if (!bt.empty()) {
    // Step iii: B->S and S->B entries of H from the children.
    for (int c = 0; c < 2; ++c) {
      const Matrix<S>& cm = *child[c];
      const auto& s_in_child = sc.s_in_child[c];
      const auto& b_in_child = sc.b_in_child[c];
      for (std::size_t p = 0; p < bt.size(); ++p) {
        const std::size_t bp = b_in_child[p];
        if (bp == kNpos) continue;
        for (std::size_t q = 0; q < st.size(); ++q) {
          b_to_s.merge(p, q, cm.at(bp, s_in_child[q]));
          s_to_b.merge(q, p, cm.at(s_in_child[q], bp));
        }
      }
    }
    // Step iv: 3-limited paths B -> S -> S -> B (H_S* includes the
    // diagonal, so 1- and 2-hop crossings are covered too).
    multiply_into(b_to_s, hs, sc.tmp);
    multiply_into(sc.tmp, s_to_b, sc.through);
    const Matrix<S>& through = sc.through;
    // Step v: best of the separator crossing and staying in one child.
    for (std::size_t p = 0; p < bt.size(); ++p) bm.at(p, p) = S::one();
    for (std::size_t p = 0; p < bt.size(); ++p) {
      for (std::size_t q = 0; q < bt.size(); ++q) {
        bm.merge(p, q, through.at(p, q));
      }
    }
    for (int c = 0; c < 2; ++c) {
      const Matrix<S>& cm = *child[c];
      const auto& b_in_child = sc.b_in_child[c];
      for (std::size_t p = 0; p < bt.size(); ++p) {
        const std::size_t bp = b_in_child[p];
        if (bp == kNpos) continue;
        for (std::size_t q = 0; q < bt.size(); ++q) {
          const std::size_t bq = b_in_child[q];
          if (bq == kNpos) continue;
          bm.merge(p, q, cm.at(bp, bq));
        }
      }
    }
  }
  Shortcut<S>* end = emit_pairs(st, hs, out.data());
  end = emit_pairs(bt, bm, end);
  SEPSP_DCHECK(end == out.data() + out.size());
  return has_negative_diagonal(hs);
}

/// Output of the level driver: node id's pair sets occupy
/// aug.shortcuts[offsets[id], offsets[id + 1]) (not yet deduplicated).
template <Semiring S>
struct LevelRun {
  Augmentation<S> aug;
  std::vector<std::size_t> offsets;
  std::vector<Matrix<S>> bnd;  ///< boundary matrices, when kept
  /// Per node: what its node_step returned.
  std::vector<std::uint8_t> negative_diagonal;
};

/// Algorithm 4.1 over the whole tree: node_step on every node, deepest
/// level first, the nodes of one level in parallel; node id writes its
/// pair sets into its own slice.
/// A parent releases its children's boundary matrices once consumed
/// unless `keep_bnd`. Fills levels, height, ell and critical_depth, and
/// sets cycle_free when the closures are Floyd–Warshall and no node has
/// a negative diagonal. The squaring closure never certifies: its
/// ceil(log2(|S| - 1)) squarings cover every simple path of H_S but not
/// every simple cycle (a cycle through all of S needs |S| hops).
template <Semiring S>
LevelRun<S> run_algorithm41(const Digraph& g, const SeparatorTree& tree,
                            ClosureKind closure, bool keep_bnd) {
  const std::size_t num_nodes = tree.num_nodes();
  LevelRun<S> run;
  run.aug.levels = compute_levels(tree);
  run.aug.height = tree.height();
  run.aug.ell = leaf_diameter_bound(tree);
  run.bnd.resize(num_nodes);
  run.negative_diagonal.assign(num_nodes, 0);
  // Every node's slice size is known up front, so the output array is
  // sized once and node tasks write disjoint slices.
  run.offsets.resize(num_nodes);
  for (std::size_t id = 0; id < num_nodes; ++id) {
    const DecompNode& t = tree.node(id);
    run.offsets[id] =
        pair_count(t.separator.size()) + pair_count(t.boundary.size());
  }
  run.aug.shortcuts.resize(offsets_from_counts(run.offsets));

  ScratchPool<RecursiveScratch<S>> scratch_pool([&] {
    return std::make_unique<RecursiveScratch<S>>(g.num_vertices());
  });
  const auto arc_weight = [](const Arc& a) { return a.weight; };
  auto process = [&](std::size_t id) {
    auto scratch = scratch_pool.acquire();
    const std::span<Shortcut<S>> slice(
        run.aug.shortcuts.data() + run.offsets[id],
        run.offsets[id + 1] - run.offsets[id]);
    run.negative_diagonal[id] =
        node_step<S>(g, tree, id, run.bnd, closure, arc_weight, *scratch,
                     run.bnd[id], slice)
            ? 1
            : 0;
    const DecompNode& t = tree.node(id);
    if (!keep_bnd && !t.is_leaf()) {
      run.bnd[static_cast<std::size_t>(t.child[0])].clear();
      run.bnd[static_cast<std::size_t>(t.child[1])].clear();
    }
  };

  const auto by_level = tree.ids_by_level();
  for (std::size_t lvl = by_level.size(); lvl-- > 0;) {
    SEPSP_TRACE_SPAN("build.level");  // merged: calls = processed levels
    const auto& ids = by_level[lvl];
    pram::ThreadPool::global().parallel_for(0, ids.size(), [&](std::size_t k) {
      const std::size_t id = ids[k];
      if (tree.node(id).is_leaf()) {
        SEPSP_TRACE_SPAN("build.leaf");  // merged by name: calls = leaves
        process(id);
      } else {
        SEPSP_TRACE_SPAN("build.internal");  // calls = internal nodes
        process(id);
      }
    });
    // Critical path of this level = the largest node's kernel depth:
    // closure on |S| plus two rectangular products, or a leaf's FW.
    // Emission is O(set^2), dominated by the kernels it rides along with.
    std::uint64_t level_depth = 1;
    for (const std::size_t id : ids) {
      const DecompNode& t = tree.node(id);
      std::uint64_t d = 0;
      if (t.is_leaf()) {
        d = t.vertices.size();  // leaf Floyd–Warshall
      } else {
        const std::uint64_t s = t.separator.size();
        const std::uint64_t log_s = s < 2 ? 1 : std::bit_width(s - 1);
        d = closure == ClosureKind::kSquaring ? log_s * (log_s + 2) : s;
        d += 2 * (log_s + 1);  // the two 3-limited products
      }
      level_depth = std::max(level_depth, d);
    }
    run.aug.critical_depth += level_depth;
  }
  run.aug.cycle_free = closure == ClosureKind::kFloydWarshall &&
                       std::none_of(run.negative_diagonal.begin(),
                                    run.negative_diagonal.end(),
                                    [](std::uint8_t f) { return f != 0; });
  return run;
}

}  // namespace detail

/// Builds E+ with Algorithm 4.1. The tree must decompose g's skeleton.
template <Semiring S>
Augmentation<S> build_augmentation_recursive(
    const Digraph& g, const SeparatorTree& tree,
    ClosureKind closure = ClosureKind::kSquaring) {
  SEPSP_TRACE_SPAN("build.recursive");
  const pram::CostScope scope;
  Augmentation<S> aug =
      detail::run_algorithm41<S>(g, tree, closure, /*keep_bnd=*/false).aug;
  dedup_shortcuts<S>(aug.shortcuts);
  aug.build_cost = scope.cost();
  return aug;
}

}  // namespace sepsp
