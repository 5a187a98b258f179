// Algorithm 4.1: computing E+ leaves-up.
//
// A node is processed once both of its children are; disjoint subtrees
// run in parallel. A node t keeps a |B(t)| x |B(t)| matrix of exact
// distances in G(t) between its boundary vertices; the parent combines
// its two children's matrices:
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
// Steps i-v exist once, in detail::node_step, which leaves the node's
// closed H_S and boundary matrix in its scratch lease. The tree's slot
// plan (separator/eplus_plan.hpp), computed once per tree, lays every
// node's two matrices out whole in one arena of entries: node id's
// slice is its H_S, then its boundary matrix, row-major, diagonals
// included. The off-diagonal cells are the node's entries — the values
// of its complete S x S and B x B pair sets — and the plan says which
// (from, to) slot of E+ each one belongs to, which entries share a
// slot, and which leveled bucket every slot sits in. Parents read their
// children's boundary matrices straight from the arena, at the
// positions the gather plan beside it lists. node_step runs under one
// scheduler, detail::tree_pass: a fork-join pass over the tree that
// runs light subtrees serially and forks the children of heavier nodes.
// A build is two steps: detail::run_algorithm41 runs node_step on every
// node in one tree_pass and copies the node's two matrices into its
// slice; then the engine's slot-value constructor takes each slot's
// minimum over its owners (slot_min) in one parallel pass, straight
// into the engine's value slabs beside the plan's slot array. Every
// build ends in that step — SeparatorShortestPaths::build and
// build_augmentation_recursive (core/engine.hpp), IncrementalEngine,
// and Algorithm 4.3 and Remark 4.4 (builder_doubling.hpp,
// builder_compact.hpp), which write their V_H group matrices in the same
// layout — so every builder returns the engine over G+.
// The incremental engine (core/incremental.cpp) keeps the arena, reruns
// node_step in a tree_pass over the dirty nodes, diffs the two matrices
// row by row against the node's slice and re-minimizes the slots of the
// entries that moved.
//
// Node tasks lease a scratch arena (builder_scratch.hpp), one lease per
// serial subtree and one per forked node: every matrix a node step
// builds reuses storage across nodes, so the tree pass allocates nothing
// per node.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
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
/// boundary matrices from their slices of `entries`, laid out by the
/// tree's slot plan, and writes the node's closed H_S into sc.hs (0 x 0
/// at a leaf) and its boundary matrix into sc.bm. Leaves run
/// Floyd–Warshall on the induced subgraph, whose arc weights come from
/// weight_of(const Arc&); internal nodes gather through the tree's
/// GatherPlan and close H_S with `closure`. Returns true when the node's
/// closure — the leaf's Floyd–Warshall matrix or the closed H_S — has a
/// diagonal cell strictly better than one(): a negative closed walk in
/// G. With Floyd–Warshall closures, G has a negative cycle exactly when
/// some node returns true (docs/ALGORITHMS.md, "The negative-cycle
/// certificate").
template <Semiring S, typename WeightOf>
bool node_step(const Digraph& g, const SeparatorTree& tree, std::size_t id,
               std::span<const typename S::Value> entries, ClosureKind closure,
               const WeightOf& weight_of, RecursiveScratch<S>& sc) {
  using Value = typename S::Value;
  const DecompNode& t = tree.node(id);
  const std::size_t ns = t.separator.size();
  const std::size_t nb = t.boundary.size();
  Matrix<S>& hs = sc.hs;
  Matrix<S>& bm = sc.bm;

  if (t.is_leaf()) {
    // Exact APSP on the (constant-size) induced subgraph.
    const std::span<const Vertex> verts = t.vertices;
    sc.map.bind(verts);
    Matrix<S>& local = sc.local;
    local.reset(verts.size());
    for (std::size_t i = 0; i < verts.size(); ++i) {
      local.at(i, i) = S::one();
      for (const Arc& a : g.out(verts[i])) {
        const std::size_t j = sc.map.find(a.to);
        if (j != VertexIndexMap::kNpos) {
          local.merge(i, j, S::from_weight(weight_of(a)));
        }
      }
    }
    floyd_warshall(local);  // leaves are O(1)-sized; any kernel is fine
    bm.reset(nb);
    for (std::size_t p = 0; p < nb; ++p) {
      const std::size_t ip = sc.map.find(t.boundary[p]);
      for (std::size_t q = 0; q < nb; ++q) {
        bm.at(p, q) = local.at(ip, sc.map.find(t.boundary[q]));
      }
    }
    hs.reset(0);  // a leaf has no separator: its slice is B x B alone
    return has_negative_diagonal(local);
  }

  // Child c's boundary matrix ends its slice: |B(c)| rows of |B(c)|
  // cells after its |S(c)|^2 H_S cells. Its positions of S(t) and of
  // the B(t) vertices it contains come from the tree's gather plan;
  // every gather below is a row read.
  const EplusPlan& eplus = *tree.eplus_plan();
  const GatherPlan& plan = eplus.gather;
  std::array<std::span<const Value>, 2> child;
  std::array<std::size_t, 2> stride{};
  for (int c = 0; c < 2; ++c) {
    const auto cid = static_cast<std::size_t>(t.child[c]);
    const DecompNode& ct = tree.node(cid);
    stride[c] = ct.boundary.size();
    child[c] = entries.subspan(
        eplus.node_offset[cid] + ct.separator.size() * ct.separator.size(),
        stride[c] * stride[c]);
  }
  const auto child_row = [&](int c, std::size_t r) {
    SEPSP_DCHECK(r < stride[c]);
    return child[c].data() + r * stride[c];
  };

  // Step i: H_S from the children's boundary distances.
  hs.reset(ns);
  for (int c = 0; c < 2; ++c) {
    const std::span<const std::uint32_t> s_in = plan.s_in_child(id, c);
    for (std::size_t i = 0; i < ns; ++i) {
      const Value* src = child_row(c, s_in[i]);
      Value* dst = hs.row(i);
      for (std::size_t j = 0; j < ns; ++j) {
        dst[j] = S::combine(dst[j], src[s_in[j]]);
      }
    }
  }
  // Step ii: closure -> exact S x S distances in G(t).
  run_closure(hs, closure, sc.square);

  if (nb == 0) {
    bm.reset(0);
    return has_negative_diagonal(hs);
  }
  // Step iii: B->S and S->B entries of H from the children.
  Matrix<S>& b_to_s = sc.b_to_s;
  Matrix<S>& s_to_b = sc.s_to_b;
  b_to_s.reset(nb, ns);
  s_to_b.reset(ns, nb);
  for (int c = 0; c < 2; ++c) {
    const std::span<const std::uint32_t> s_in = plan.s_in_child(id, c);
    const std::span<const std::uint32_t> rows = plan.b_rows(id, c);
    const std::span<const std::uint32_t> b_in = plan.b_in_child(id, c);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const Value* src = child_row(c, b_in[k]);
      Value* dst = b_to_s.row(rows[k]);
      for (std::size_t q = 0; q < ns; ++q) {
        dst[q] = S::combine(dst[q], src[s_in[q]]);
      }
    }
    for (std::size_t q = 0; q < ns; ++q) {
      const Value* src = child_row(c, s_in[q]);
      Value* dst = s_to_b.row(q);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        dst[rows[k]] = S::combine(dst[rows[k]], src[b_in[k]]);
      }
    }
  }
  // Step iv: 3-limited paths B -> S -> S -> B (H_S* includes the
  // diagonal, so 1- and 2-hop crossings are covered too), written
  // straight into bm: combine(zero(), x) is x, bit for bit, in every
  // semiring, so bm holds exactly the crossing matrix.
  multiply_into(b_to_s, hs, sc.tmp);
  multiply_into(sc.tmp, s_to_b, bm);
  // Step v: best of the empty path, the separator crossing and staying
  // in one child, combined per cell in that order.
  for (std::size_t p = 0; p < nb; ++p) {
    bm.at(p, p) = S::combine(S::one(), bm.at(p, p));
  }
  for (int c = 0; c < 2; ++c) {
    const std::span<const std::uint32_t> rows = plan.b_rows(id, c);
    const std::span<const std::uint32_t> b_in = plan.b_in_child(id, c);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const Value* src = child_row(c, b_in[k]);
      Value* dst = bm.row(rows[k]);
      for (std::size_t l = 0; l < rows.size(); ++l) {
        dst[rows[l]] = S::combine(dst[rows[l]], src[b_in[l]]);
      }
    }
  }
  return has_negative_diagonal(hs);
}

/// Estimated cost of node_step on `t`, in cell updates: a leaf's
/// Floyd–Warshall, or an internal node's H_S closure and two 3-limited
/// products, plus the squares of the gathers and the copy into the
/// arena, plus a fixed per-node cost (scratch resets and call overhead;
/// when it was measured, each node still allocated its boundary matrix
/// and a 4-vertex leaf took about as long as 1,000 kernel cells).
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

/// Subtrees whose summed node_work is below this run serially on one
/// thread: waking the pool for them costs more than their nodes do (the
/// kSerialKernelCells rule, applied to a subtree). On the prep-mesh tree
/// this leaves 32 serial subtrees, on the 9x9x9 grid 64.
inline constexpr std::uint64_t kInlineLevelWork = std::uint64_t{1} << 17;

/// Summed node_work of every node's subtree, by node id.
inline std::vector<std::uint64_t> subtree_work(const SeparatorTree& tree) {
  std::vector<std::uint64_t> work(tree.num_nodes());
  for (std::size_t id = tree.num_nodes(); id-- > 0;) {  // children first
    const DecompNode& t = tree.node(id);
    work[id] = node_work(t);
    if (!t.is_leaf()) {
      work[id] += work[static_cast<std::size_t>(t.child[0])] +
                  work[static_cast<std::size_t>(t.child[1])];
    }
  }
  return work;
}

/// tree_pass below the fork cutoff: the subtree rooted at `id` in
/// postorder on the calling thread, on one scratch object.
template <typename Scratch, typename Enter, typename Visit>
bool serial_pass(const SeparatorTree& tree, std::size_t id,
                 const Enter& enter, const Visit& visit, Scratch& sc) {
  bool changed = false;
  for (const std::int32_t c : tree.node(id).child) {
    const auto child = static_cast<std::size_t>(c);
    if (c >= 0 && enter(child) && serial_pass(tree, child, enter, visit, sc)) {
      changed = true;
    }
  }
  return visit(id, changed, sc);
}

/// The one scheduler of Algorithm 4.1's node step: a leaves-up pass over
/// the subtree rooted at `id` that enters the children for which
/// enter(child) holds and calls visit(node, changed, scratch) on every
/// node it enters, after all of that node's entered children; `changed`
/// is whether any of their visits returned true, and the pass returns
/// the root's visit. A subtree whose summed node_work (`work`, from
/// subtree_work) is below kInlineLevelWork runs serially in postorder,
/// in one task on one scratch lease; a heavier node forks its entered
/// children on the pool and visits itself right after the join. Every
/// node is visited once, after its children, so visits that write only
/// their own node's state and read only their children's never race.
template <typename Scratch, typename Enter, typename Visit>
bool tree_pass(const SeparatorTree& tree, std::span<const std::uint64_t> work,
               ScratchPool<Scratch>& scratch, std::size_t id,
               const Enter& enter, const Visit& visit) {
  if (work[id] < kInlineLevelWork) {
    auto sc = scratch.acquire();
    return serial_pass(tree, id, enter, visit, *sc);
  }
  std::array<std::size_t, 2> entered{};
  std::size_t n = 0;
  for (const std::int32_t c : tree.node(id).child) {
    const auto child = static_cast<std::size_t>(c);
    if (c >= 0 && enter(child)) entered[n++] = child;
  }
  // A single entered child runs inline: its range is one grain.
  std::array<bool, 2> changed = {false, false};
  pram::ThreadPool::global().parallel_blocks(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          changed[k] =
              tree_pass(tree, work, scratch, entered[k], enter, visit);
        }
      },
      /*grain=*/1);
  auto sc = scratch.acquire();
  return visit(id, changed[0] || changed[1], *sc);
}

/// Algorithm 4.1's critical path in kernel steps, as the PRAM model
/// schedules it (every node of a level at once): the sum over tree
/// levels of the largest node depth on the level, at least 1. A node's
/// depth is its closure on |S| plus the two 3-limited rectangular
/// products, or a leaf's Floyd–Warshall; the copy into the arena is
/// O(set^2), dominated by the kernels it rides along with.
inline std::uint64_t critical_depth(const SeparatorTree& tree,
                                    ClosureKind closure) {
  std::vector<std::uint64_t> level_depth(tree.height() + 1, 1);
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    std::uint64_t d = 0;
    if (t.is_leaf()) {
      d = t.vertices.size();
    } else {
      const std::uint64_t s = t.separator.size();
      const std::uint64_t log_s = s < 2 ? 1 : std::bit_width(s - 1);
      d = closure == ClosureKind::kSquaring ? log_s * (log_s + 2) : s;
      d += 2 * (log_s + 1);
    }
    level_depth[t.level] = std::max(level_depth[t.level], d);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t d : level_depth) total += d;
  return total;
}

/// Output of run_algorithm41. Node id's closed H_S and boundary matrix
/// occupy entries[plan.node_offset[id], plan.node_offset[id + 1]) of
/// aug.plan, as the plan lays them out; the off-diagonal cells are the
/// node's entry values, not yet minimized per slot.
template <Semiring S>
struct TreeRun {
  Augmentation aug;
  std::unique_ptr<typename S::Value[]> arena;  ///< owns `entries`
  std::span<typename S::Value> entries;
  /// Per node: what its node_step returned.
  std::vector<std::uint8_t> negative_diagonal;
  /// The build's certificate, handed to the engine: G has no negative
  /// cycle (Floyd–Warshall closures, no node with a negative diagonal).
  bool cycle_free = false;
};

/// Algorithm 4.1 over the whole tree: node_step on every node in one
/// tree_pass; node id copies its two matrices into its own slice. Fills
/// plan, height, ell and critical_depth, and sets cycle_free when the
/// closures are Floyd–Warshall and no node has a negative diagonal. The
/// squaring closure never certifies: its ceil(log2(|S| - 1)) squarings
/// cover every simple path of H_S but not every simple cycle (a cycle
/// through all of S needs |S| hops).
template <Semiring S>
TreeRun<S> run_algorithm41(const Digraph& g, const SeparatorTree& tree,
                           ClosureKind closure) {
  using Value = typename S::Value;
  const std::size_t num_nodes = tree.num_nodes();
  TreeRun<S> run;
  run.aug.plan = tree.eplus_plan();
  SEPSP_CHECK_MSG(run.aug.plan != nullptr,
                  "run_algorithm41: tree not built by build_separator_tree");
  const EplusPlan& plan = *run.aug.plan;
  run.aug.height = tree.height();
  run.aug.ell = leaf_diameter_bound(tree);
  run.aug.critical_depth = critical_depth(tree, closure);
  run.negative_diagonal.assign(num_nodes, 0);
  // Every cell is written by its node's visit before any parent reads
  // it, so the arena starts uninitialized.
  run.arena = std::make_unique_for_overwrite<Value[]>(plan.num_entries());
  run.entries = {run.arena.get(), plan.num_entries()};

  ScratchPool<RecursiveScratch<S>> scratch_pool([&] {
    return std::make_unique<RecursiveScratch<S>>(g.num_vertices());
  });
  const auto arc_weight = [](const Arc& a) { return a.weight; };
  const auto visit = [&](std::size_t id, bool, RecursiveScratch<S>& sc) {
    const bool negative =
        node_step<S>(g, tree, id, run.entries, closure, arc_weight, sc);
    run.negative_diagonal[id] = negative ? 1 : 0;
    Value* out = run.entries.data() + plan.node_offset[id];
    for (const Matrix<S>* m : {&sc.hs, &sc.bm}) {
      for (std::size_t i = 0; i < m->rows(); ++i) {
        out = std::copy_n(m->row(i), m->cols(), out);
      }
    }
    SEPSP_DCHECK(out == run.entries.data() + plan.node_offset[id + 1]);
    return true;
  };
  if (num_nodes > 0) {
    SEPSP_TRACE_SPAN("build.nodes");
    tree_pass(tree, subtree_work(tree), scratch_pool, 0,
              [](std::size_t) { return true; }, visit);
  }
  run.cycle_free = closure == ClosureKind::kFloydWarshall &&
                   std::none_of(run.negative_diagonal.begin(),
                                run.negative_diagonal.end(),
                                [](std::uint8_t f) { return f != 0; });
  return run;
}

/// The value of one plan slot: combine() over its owners' entry values
/// in ascending entry order, starting from the first owner. With
/// combine(a, b) = a < b ? a : b, the later of two equal owners wins,
/// +0.0 against -0.0 included.
template <Semiring S>
typename S::Value slot_min(const EplusPlan& plan, std::size_t slot,
                           std::span<const typename S::Value> entries) {
  std::size_t o = plan.owner_offset[slot];
  const std::size_t end = plan.owner_offset[slot + 1];
  typename S::Value best = entries[plan.owner_entry[o]];
  for (++o; o < end; ++o) best = S::combine(best, entries[plan.owner_entry[o]]);
  return best;
}

}  // namespace detail

}  // namespace sepsp
