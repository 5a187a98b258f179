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
// Steps i-v exist once, in detail::node_step, which writes the values
// of the node's complete S x S and B x B pair sets into its slice of the
// raw emission. Which pair each value belongs to, and which values share
// a (from, to) slot of E+, is the tree's slot plan
// (separator/eplus_plan.hpp), computed once per tree. A build is three
// steps: detail::run_algorithm41 runs the levels deepest first, the
// nodes of a level in parallel, and accounts the critical depth;
// detail::minimize_slots takes each slot's minimum over its owners; the
// query engine (LeveledQuery) merges base arcs and E+ into its buckets.
// The incremental engine (core/incremental.cpp) reruns node_step into
// scratch, diffs the result against the retained values and
// re-minimizes the touched slots through the same plan.
//
// Node tasks lease a scratch arena (builder_scratch.hpp), one lease per
// block of nodes: intermediate matrices reuse storage across nodes, and
// vertex->index lookups are O(1) dense-map probes instead of per-arc
// binary searches. Only the cross-level boundary matrices (`bnd`) own
// long-lived storage.
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

/// Writes all off-diagonal cells of the square matrix `m`, i-major —
/// the values of the pairs EplusPlan lays out for one vertex group —
/// and returns past-the-end.
template <Semiring S>
typename S::Value* emit_pairs(const Matrix<S>& m, typename S::Value* out) {
  const std::size_t k = m.rows();
  for (std::size_t i = 0; i < k; ++i) {
    const typename S::Value* row = m.row(i);
    out = std::copy(row, row + i, out);
    out = std::copy(row + i + 1, row + k, out);
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
/// boundary matrices from `bnd`, writes the node's own into `bm` and the
/// values of its complete S x S and B x B pair sets into `out`, in the
/// order EplusPlan lays the node's entries out (pair_count(|S|) +
/// pair_count(|B|) values). Leaves run Floyd–Warshall on the
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
               Matrix<S>& bm, std::span<typename S::Value> out) {
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
    emit_pairs(bm, out.data());
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
  typename S::Value* end = emit_pairs(hs, out.data());
  end = emit_pairs(bm, end);
  SEPSP_DCHECK(end == out.data() + out.size());
  return has_negative_diagonal(hs);
}

/// Estimated cost of node_step on `t`, in cell updates: a leaf's
/// Floyd–Warshall, or an internal node's H_S closure and two 3-limited
/// products, plus the squares of the gathers and the emission, plus a
/// fixed per-node cost (map binds, scratch resets, the boundary
/// matrix's allocation: a 4-vertex leaf takes about as long as 1,000
/// kernel cells).
inline std::uint64_t node_work(const DecompNode& t) {
  constexpr std::uint64_t kPerNode = 1024;
  if (t.is_leaf()) {
    const std::uint64_t v = t.vertices.size();
    return v * v * v + v * v + kPerNode;
  }
  const std::uint64_t s = t.separator.size();
  const std::uint64_t b = t.boundary.size();
  return s * s * s + s * s * b + s * b * b + s * s + b * b + kPerNode;
}

/// Levels whose summed node_work is below this run on the calling
/// thread: waking the pool for them costs more than the nodes do (the
/// kSerialKernelCells rule, applied to a level). On the prep-mesh tree
/// this keeps the two deepest levels and the two topmost ones inline.
inline constexpr std::uint64_t kInlineLevelWork = std::uint64_t{1} << 17;

/// Output of the level driver. Node id's entry values occupy
/// entries[plan.node_offset[id], plan.node_offset[id + 1]) of
/// aug.plan, not yet minimized per slot; aug.shortcuts is empty.
template <Semiring S>
struct LevelRun {
  Augmentation<S> aug;
  std::vector<typename S::Value> entries;
  std::vector<Matrix<S>> bnd;  ///< boundary matrices, when kept
  /// Per node: what its node_step returned.
  std::vector<std::uint8_t> negative_diagonal;
};

/// Algorithm 4.1 over the whole tree: node_step on every node, deepest
/// level first, the nodes of one level in parallel unless the level is
/// lighter than kInlineLevelWork; node id writes its entry values into
/// its own slice. After each level the children's boundary matrices are
/// released unless `keep_bnd`. Fills plan, levels, height, ell and
/// critical_depth, and sets cycle_free when the closures are
/// Floyd–Warshall and no node has a negative diagonal. The squaring
/// closure never certifies: its ceil(log2(|S| - 1)) squarings cover
/// every simple path of H_S but not every simple cycle (a cycle through
/// all of S needs |S| hops).
template <Semiring S>
LevelRun<S> run_algorithm41(const Digraph& g, const SeparatorTree& tree,
                            ClosureKind closure, bool keep_bnd) {
  const std::size_t num_nodes = tree.num_nodes();
  LevelRun<S> run;
  run.aug.plan = tree.eplus_plan();
  SEPSP_CHECK_MSG(run.aug.plan != nullptr,
                  "run_algorithm41: tree not built by build_separator_tree");
  const EplusPlan& plan = *run.aug.plan;
  run.aug.levels = compute_levels(tree);
  run.aug.height = tree.height();
  run.aug.ell = leaf_diameter_bound(tree);
  run.bnd.resize(num_nodes);
  run.negative_diagonal.assign(num_nodes, 0);
  run.entries.resize(plan.num_entries());

  ScratchPool<RecursiveScratch<S>> scratch_pool([&] {
    return std::make_unique<RecursiveScratch<S>>(g.num_vertices());
  });
  const auto arc_weight = [](const Arc& a) { return a.weight; };
  std::span<const std::size_t> ids;
  // One scratch lease per block of nodes, not per node: leases come off
  // a mutex-guarded pool.
  const auto run_block = [&](std::size_t lo, std::size_t hi) {
    auto scratch = scratch_pool.acquire();
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t id = ids[k];
      const std::span<typename S::Value> slice(
          run.entries.data() + plan.node_offset[id],
          plan.node_offset[id + 1] - plan.node_offset[id]);
      run.negative_diagonal[id] =
          node_step<S>(g, tree, id, run.bnd, closure, arc_weight, *scratch,
                       run.bnd[id], slice)
              ? 1
              : 0;
    }
  };

  const auto by_level = tree.ids_by_level();
  for (std::size_t lvl = by_level.size(); lvl-- > 0;) {
    SEPSP_TRACE_SPAN("build.nodes");  // merged: calls = processed levels
    ids = by_level[lvl];
    std::uint64_t work = 0;
    for (const std::size_t id : ids) work += node_work(tree.node(id));
    if (work < kInlineLevelWork) {
      run_block(0, ids.size());
    } else {
      pram::ThreadPool::global().parallel_blocks(0, ids.size(), run_block);
    }
    // The calling thread releases the consumed children's matrices: a
    // worker freeing a matrix another worker allocated contends on that
    // worker's allocator arena.
    for (const std::size_t id : ids) {
      const DecompNode& t = tree.node(id);
      if (keep_bnd || t.is_leaf()) continue;
      run.bnd[static_cast<std::size_t>(t.child[0])].clear();
      run.bnd[static_cast<std::size_t>(t.child[1])].clear();
    }
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

/// The value of one plan slot: combine() over its owners' entry values
/// in ascending entry order, starting from the first owner. With
/// combine(a, b) = a < b ? a : b, the later of two equal owners wins —
/// the bits dedup_shortcuts keeps, +0.0 against -0.0 included.
template <Semiring S>
typename S::Value slot_min(const EplusPlan& plan, std::size_t slot,
                           std::span<const typename S::Value> entries) {
  std::size_t o = plan.owner_offset[slot];
  const std::size_t end = plan.owner_offset[slot + 1];
  typename S::Value best = entries[plan.owner_entry[o]];
  for (++o; o < end; ++o) best = S::combine(best, entries[plan.owner_entry[o]]);
  return best;
}

/// E+ from a level run: the per-slot minimum of the raw entries, in the
/// plan's (from, to) order, with zero() ("no path") slots dropped.
template <Semiring S>
std::vector<Shortcut<S>> minimize_slots(const EplusPlan& plan,
                                        std::span<const typename S::Value>
                                            entries) {
  SEPSP_TRACE_SPAN("build.slot_min");
  std::vector<typename S::Value> best(plan.num_slots());
  pram::ThreadPool::global().parallel_blocks(
      0, best.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t slot = lo; slot < hi; ++slot) {
          best[slot] = slot_min<S>(plan, slot, entries);
        }
      },
      /*grain=*/std::size_t{1} << 14);
  std::size_t kept = 0;
  for (const auto& v : best) kept += S::improves(S::zero(), v) ? 1 : 0;
  std::vector<Shortcut<S>> out;
  out.reserve(kept);
  for (std::size_t slot = 0; slot < best.size(); ++slot) {
    if (S::improves(S::zero(), best[slot])) {
      out.push_back({plan.slots[slot].from, plan.slots[slot].to, best[slot]});
    }
  }
  return out;
}

}  // namespace detail

/// Builds E+ with Algorithm 4.1. The tree must decompose g's skeleton.
template <Semiring S>
Augmentation<S> build_augmentation_recursive(
    const Digraph& g, const SeparatorTree& tree,
    ClosureKind closure = ClosureKind::kSquaring) {
  SEPSP_TRACE_SPAN("build.recursive");
  const pram::CostScope scope;
  detail::LevelRun<S> run =
      detail::run_algorithm41<S>(g, tree, closure, /*keep_bnd=*/false);
  run.aug.shortcuts = detail::minimize_slots<S>(*run.aug.plan, run.entries);
  run.aug.build_cost = scope.cost();
  return std::move(run.aug);
}

}  // namespace sepsp
