#include "core/incremental.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "core/builder_recursive.hpp"  // detail::node_step, tree_pass
#include "core/builder_scratch.hpp"    // detail::ScratchPool
#include "obs/trace.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"

namespace sepsp {

using S = TropicalD;

struct IncrementalEngine::State {
  const Digraph* g = nullptr;
  const SeparatorTree* tree = nullptr;

  /// Effective weight per flat arc index (indexes g->arcs()).
  std::vector<double> weights;

  /// Retained Algorithm-4.1 state: the entry arena, every node's closed
  /// H_S and boundary matrix laid out by the tree's slot plan `plan`
  /// (node id's at [node_offset[id], node_offset[id + 1]) of `entries`;
  /// the pairs are the plan's, only values change under reweighting).
  std::unique_ptr<S::Value[]> arena;  ///< owns `entries`
  std::span<S::Value> entries;

  /// The negative-cycle certificate, per node: node id's closure has a
  /// diagonal cell below one() (what detail::node_step returned), and how
  /// many nodes do. apply() refreshes the flags of exactly the nodes it
  /// recomputes; any other node's inputs did not change, so its flag
  /// still holds. negative_nodes == 0 is the current certificate.
  std::vector<std::uint8_t> negative_diagonal;
  std::size_t negative_nodes = 0;

  /// Staged changes. dirty marks the dirty region: the leaves whose
  /// weights changed and all of their ancestors (update_edge marks up the
  /// parent chain; apply()'s pass enters exactly the marked nodes and its
  /// fold clears them). arc_staged dedupes updated_arcs, which is empty
  /// exactly when nothing is staged.
  std::vector<std::uint8_t> dirty;         // per tree node
  std::vector<std::size_t> updated_arcs;   // flat arc indices
  std::vector<std::uint8_t> arc_staged;    // per flat arc

  /// Memoized arc -> containing leaves, keyed by the first arc of the
  /// (u, v) parallel range (parallel arcs share endpoints, hence leaf
  /// sets). An empty list is a legitimate value (both-endpoint leaves
  /// may not exist), so presence is tracked separately.
  std::vector<std::vector<std::uint32_t>> arc_leaves;
  std::vector<std::uint8_t> arc_leaves_known;

  /// Epoch-stamped slot marks: the touched-slot worklist of apply()
  /// dedupes via mark_token instead of clearing a bitmap per batch.
  /// mark_token also tags each scratch's moved list with its batch.
  std::vector<std::uint64_t> slot_mark;
  std::uint64_t mark_token = 0;
  std::vector<std::uint32_t> touched;  // apply()'s slots, high-water storage

  /// Staging buffers for the pooled re-minimize combines (high-water
  /// storage reused across batches).
  std::vector<S::Value> remin_values;
  std::vector<std::uint8_t> remin_changed;

  /// Applied update batches (the version tag snapshots carry).
  std::uint64_t epoch = 0;

  ApplyStats last_stats;

  /// The live engine: the build's immutable metadata (augmentation())
  /// and E+'s one copy, patched in place by apply(). It always runs the
  /// verification pass; snapshot() freezes forks of it.
  std::optional<SeparatorShortestPaths<S>> engine;
  /// The tree's slot plan (the live engine's augmentation's).
  const EplusPlan* plan = nullptr;
  /// Per-task arenas for node recomputes (never thread_local: the
  /// pool's help-first joins can re-enter a worker mid-task). Matrices
  /// reuse their high-water storage across leases, so a steady update
  /// stream recomputes allocation-free.
  std::optional<detail::ScratchPool<detail::RecursiveScratch<S>>> scratch;

  /// detail::subtree_work of the tree: where apply()'s pass forks.
  std::vector<std::uint64_t> work;

  /// What apply()'s pass did at each node, kept until the fold reads
  /// it: node id's visit writes only delta[id]. A recomputed node's
  /// moved entry indices are sc->moved[begin, begin + moved) of the
  /// scratch it ran on, which only one task holds at a time.
  struct NodeDelta {
    /// The scratch the node was recomputed on; null when it was not.
    const detail::RecursiveScratch<S>* sc = nullptr;
    std::uint32_t begin = 0;
    std::uint32_t moved = 0;  ///< entries whose value bits changed
    bool flipped = false;     ///< negative_diagonal[id] changed
  };
  std::vector<NodeDelta> delta;

  /// Copies the cells of the square matrix `m` whose bits differ from
  /// its retained copy entries[base, base + m.rows()^2) — row-major,
  /// diagonal included — and appends the entry indices of the
  /// off-diagonal ones, the cells that own a slot, to `moved`. A row
  /// whose bits memcmp equal is skipped whole. Returns whether any cell
  /// moved, diagonal included.
  bool diff_rows(const Matrix<S>& m, std::size_t base,
                 std::vector<std::uint32_t>& moved) {
    const std::size_t k = m.rows();
    bool any = false;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t first = base + i * k;
      S::Value* old = entries.data() + first;
      const S::Value* row = m.row(i);
      if (std::memcmp(old, row, k * sizeof(S::Value)) == 0) continue;
      any = true;
      for (std::size_t j = 0; j < k; ++j) {
        if (std::memcmp(&old[j], &row[j], sizeof(S::Value)) == 0) continue;
        old[j] = row[j];
        if (j != i) moved.push_back(static_cast<std::uint32_t>(first + j));
      }
    }
    return any;
  }

  /// Recomputes node `id` with the shared Algorithm-4.1 node step (the
  /// Floyd–Warshall closure the initial build used) into scratch, and
  /// diffs the closed H_S and the boundary matrix row by row against the
  /// node's slice of the arena: only cells that moved are written, and
  /// the indices of the off-diagonal ones go to sc.moved (the slots to
  /// re-minimize). Updates the node's certificate flag and records the
  /// change in delta[id]. Writes only this node's state, so distinct
  /// nodes whose children are final may run concurrently. Returns
  /// whether the boundary matrix changed (any bit, diagonal included):
  /// that drives upward propagation. An internal node's S x S entries
  /// can move while its boundary matrix does not, and vice versa.
  bool recompute_node(std::size_t id, detail::RecursiveScratch<S>& sc) {
    const std::uint8_t negative =
        detail::node_step<S>(
            *g, *tree, id, entries, ClosureKind::kFloydWarshall,
            [&](const Arc& a) {
              return weights[static_cast<std::size_t>(&a - g->arcs().data())];
            },
            sc)
            ? 1
            : 0;
    NodeDelta& d = delta[id];
    d.flipped = negative != negative_diagonal[id];
    negative_diagonal[id] = negative;
    if (sc.batch != mark_token) {  // first node of this batch on sc
      sc.batch = mark_token;
      sc.moved.clear();
    }
    d.sc = &sc;
    d.begin = static_cast<std::uint32_t>(sc.moved.size());
    const std::size_t base = plan->node_offset[id];
    diff_rows(sc.hs, base, sc.moved);
    const bool matrix =
        diff_rows(sc.bm, base + sc.hs.rows() * sc.hs.rows(), sc.moved);
    d.moved = static_cast<std::uint32_t>(sc.moved.size() - d.begin);
    return matrix;
  }

  /// Folds the pass's per-node results over the dirty region below `id`,
  /// in preorder, into last_stats, negative_nodes and the touched-slot
  /// worklist, and clears the region's marks and deltas.
  void fold(std::size_t id) {
    dirty[id] = 0;
    NodeDelta& d = delta[id];
    if (d.sc != nullptr) {
      ++last_stats.nodes_recomputed;
      last_stats.entries_moved += d.moved;
      if (d.flipped) {
        negative_nodes = negative_diagonal[id] ? negative_nodes + 1
                                               : negative_nodes - 1;
      }
      const std::uint32_t* e = d.sc->moved.data() + d.begin;
      for (std::uint32_t k = 0; k < d.moved; ++k) {
        const std::uint32_t slot = plan->entry_slot[e[k]];
        if (slot_mark[slot] != mark_token) {
          slot_mark[slot] = mark_token;
          touched.push_back(slot);
        }
      }
      d = {};
    }
    for (const std::int32_t c : tree->node(id).child) {
      const auto child = static_cast<std::size_t>(c);
      if (c >= 0 && dirty[child]) fold(child);
    }
  }
};

IncrementalEngine IncrementalEngine::build(const Digraph& g,
                                           const SeparatorTree& tree) {
  SEPSP_CHECK(tree.num_graph_vertices() == g.num_vertices());
  IncrementalEngine engine;
  engine.state_ = std::make_shared<State>();
  State& s = *engine.state_;
  s.g = &g;
  s.tree = &tree;
  s.weights.reserve(g.num_edges());
  for (const Arc& a : g.arcs()) s.weights.push_back(a.weight);
  s.dirty.assign(tree.num_nodes(), 0);
  s.arc_staged.assign(g.num_edges(), 0);
  s.arc_leaves.resize(g.num_edges());
  s.arc_leaves_known.assign(g.num_edges(), 0);
  s.scratch.emplace([n = g.num_vertices()] {
    return std::make_unique<detail::RecursiveScratch<S>>(n);
  });

  // The exact build with Floyd–Warshall closures, keeping its entry
  // arena — every node's two matrices — for later recomputes.
  detail::TreeRun<S> run =
      detail::run_algorithm41<S>(g, tree, ClosureKind::kFloydWarshall);
  s.arena = std::move(run.arena);
  s.entries = run.entries;
  s.negative_diagonal = std::move(run.negative_diagonal);
  s.negative_nodes = static_cast<std::size_t>(std::count(
      s.negative_diagonal.begin(), s.negative_diagonal.end(), 1));
  s.plan = run.aug.plan.get();

  // One value per plan slot, unreachable pairs kept at +inf so
  // reweighting can activate them — the same E+ an exact build has,
  // written in the same single pass, into the live engine alone. The
  // weighting will change, so the live engine certifies nothing.
  const EplusPlan& plan = *s.plan;
  s.engine.emplace(SeparatorShortestPaths<S>(
      g, std::move(run.aug), {}, /*cycle_certified=*/false, s.entries));
  s.slot_mark.assign(plan.num_slots(), 0);
  s.work = detail::subtree_work(tree);
  s.delta.resize(tree.num_nodes());
  return engine;
}

void IncrementalEngine::update_edge(Vertex u, Vertex v, double weight) {
  State& s = *state_;
  SEPSP_CHECK(u < s.g->num_vertices() && v < s.g->num_vertices());
  // out(u) is sorted by target, so the parallel (u, v) arcs form one
  // contiguous range found by binary search — no per-call scan of the
  // whole adjacency list.
  const auto arcs = s.g->out(u);
  const auto lo = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex target) { return a.to < target; });
  const auto hi = std::upper_bound(
      lo, arcs.end(), v,
      [](Vertex target, const Arc& a) { return target < a.to; });
  SEPSP_CHECK_MSG(lo != hi, "update_edge: arc does not exist");
  const std::size_t base =
      static_cast<std::size_t>(arcs.data() - s.g->arcs().data());
  const std::size_t first =
      base + static_cast<std::size_t>(lo - arcs.begin());
  for (auto it = lo; it != hi; ++it) {
    const std::size_t arc =
        base + static_cast<std::size_t>(it - arcs.begin());
    s.weights[arc] = weight;
    if (!s.arc_staged[arc]) {
      s.arc_staged[arc] = 1;
      s.updated_arcs.push_back(arc);
    }
  }

  // Only leaves read edge weights directly (internal nodes consume
  // their children's matrices), so seed dirtiness at the leaves whose
  // subgraph contains the arc; apply() propagates upward exactly as far
  // as matrices actually change. The containing-leaf set depends only
  // on the endpoints, so it is memoized per parallel-arc range: a
  // streaming workload walks the subtree once per arc, ever.
  if (!s.arc_leaves_known[first]) {
    std::vector<std::uint32_t> leaves;
    std::vector<std::size_t> pending{0};
    while (!pending.empty()) {
      const std::size_t id = pending.back();
      pending.pop_back();
      const DecompNode& t = s.tree->node(id);
      if (t.is_leaf()) {
        leaves.push_back(static_cast<std::uint32_t>(id));
        continue;
      }
      for (const std::int32_t child : t.child) {
        const DecompNode& c = s.tree->node(static_cast<std::size_t>(child));
        if (std::binary_search(c.vertices.begin(), c.vertices.end(), u) &&
            std::binary_search(c.vertices.begin(), c.vertices.end(), v)) {
          pending.push_back(static_cast<std::size_t>(child));
        }
      }
    }
    s.arc_leaves[first] = std::move(leaves);
    s.arc_leaves_known[first] = 1;
  }
  // Mark each leaf and its ancestors up to the first one already marked.
  for (const std::uint32_t leaf : s.arc_leaves[first]) {
    auto id = static_cast<std::int32_t>(leaf);
    while (id >= 0 && !s.dirty[static_cast<std::size_t>(id)]) {
      s.dirty[static_cast<std::size_t>(id)] = 1;
      id = s.tree->node(static_cast<std::size_t>(id)).parent;
    }
  }
}

std::size_t IncrementalEngine::apply() {
  State& s = *state_;
  if (s.updated_arcs.empty()) return 0;
  SEPSP_TRACE_SPAN("incremental.apply");
  // Recompute bottom-up in one detail::tree_pass over the dirty region.
  // A node is recomputed when a weight it reads changed (leaves) or when
  // a child's boundary matrix changed; propagation stops as soon as a
  // recomputation reproduces the old matrix bit for bit, so local
  // updates rarely climb far. Each visit reads only its children's
  // final matrices and writes only its own node's state; the per-node
  // results are then folded serially in preorder, which makes the
  // touched-slot list — hence the whole batch — independent of how the
  // pool scheduled the pass.
  std::optional<obs::TraceSpan> phase(std::in_place, "incremental.recompute");
  s.last_stats = {};
  s.touched.clear();
  ++s.mark_token;
  if (s.dirty[0]) {
    detail::tree_pass(
        *s.tree, s.work, *s.scratch, 0,
        [&s](std::size_t id) { return s.dirty[id] != 0; },
        [&s](std::size_t id, bool changed, detail::RecursiveScratch<S>& sc) {
          return (changed || s.tree->node(id).is_leaf()) &&
                 s.recompute_node(id, sc);
        });
    s.fold(0);
  }
  const std::vector<std::uint32_t>& touched = s.touched;

  // Re-minimize only the touched slots — O(touched x owners) instead of
  // a full O(|E+|) scan per batch. Each slot's minimum depends only on
  // its own owner entries, so the combines (and the did-it-change
  // checks) run on the pool into staging buffers; the refreshes — the
  // only writes into shared bucket storage — then run serially in
  // worklist order, whatever the pool's schedule. Most touched slots
  // re-minimize to their old value (the owner that changed was not the
  // minimum): the bucket already holds it, so the refresh — and its
  // slab detach — is skipped. The old value is read from the live
  // engine, E+'s one copy; bitwise comparison keeps the skip exactly as
  // strict as the parity contract.
  phase.emplace("incremental.reminimize");
  s.remin_values.resize(touched.size());
  s.remin_changed.assign(touched.size(), 0);
  const EdgeBucket<S>& eplus = s.engine->shortcut_edges();
  const auto combine_one = [&](std::size_t i) {
    const std::uint32_t slot = touched[i];
    const S::Value value = detail::slot_min<S>(*s.plan, slot, s.entries);
    const S::Value old = eplus.value(slot);
    s.remin_values[i] = value;
    s.remin_changed[i] = std::memcmp(&value, &old, sizeof(value)) != 0;
  };
  if (touched.size() > 4096) {
    pram::ThreadPool::global().parallel_for(0, touched.size(), combine_one,
                                            /*grain=*/512);
  } else {
    for (std::size_t i = 0; i < touched.size(); ++i) combine_one(i);
  }
  phase.emplace("incremental.refresh");
  std::size_t slabs_copied = 0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (!s.remin_changed[i]) continue;
    slabs_copied += s.engine->refresh_shortcut(touched[i], s.remin_values[i]);
  }
  for (const std::size_t arc : s.updated_arcs) {
    slabs_copied += s.engine->refresh_base(arc, S::from_weight(s.weights[arc]));
  }

  s.last_stats.slots_touched = touched.size();
  s.last_stats.slabs_copied = slabs_copied;

  for (const std::size_t arc : s.updated_arcs) s.arc_staged[arc] = 0;
  s.updated_arcs.clear();
  ++s.epoch;
  return s.last_stats.nodes_recomputed;
}

IncrementalEngine::ApplyStats IncrementalEngine::last_apply_stats() const {
  return state_->last_stats;
}

std::uint64_t IncrementalEngine::epoch() const { return state_->epoch; }

const Digraph& IncrementalEngine::graph() const { return *state_->g; }

const SeparatorTree& IncrementalEngine::tree() const { return *state_->tree; }

std::span<const double> IncrementalEngine::weights() const {
  return state_->weights;
}

IncrementalEngine::Snapshot IncrementalEngine::snapshot(
    const SeparatorShortestPaths<TropicalD>::Options& options) const {
  State& s = *state_;
  SEPSP_CHECK_MSG(s.updated_arcs.empty(),
                  "staged updates pending — call apply() before snapshot()");
  // Structural fork: the snapshot aliases every value slab of the live
  // engine (future refreshes detach only touched slabs) and shares its
  // immutable augmentation — no copies proportional to the structure.
  // The current certificate is frozen here: a certified epoch's queries
  // skip the negative-cycle pass.
  Snapshot snap;
  snap.epoch = s.epoch;
  snap.engine = SeparatorShortestPaths<S>::freeze(
      s.engine->fork(options, /*cycle_certified=*/s.negative_nodes == 0));
  return snap;
}

double IncrementalEngine::weight(Vertex u, Vertex v) const {
  const State& s = *state_;
  SEPSP_CHECK(u < s.g->num_vertices() && v < s.g->num_vertices());
  const auto arcs = s.g->out(u);
  const auto lo = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex target) { return a.to < target; });
  const auto hi = std::upper_bound(
      lo, arcs.end(), v,
      [](Vertex target, const Arc& a) { return target < a.to; });
  const std::size_t base =
      static_cast<std::size_t>(arcs.data() - s.g->arcs().data());
  double best = std::numeric_limits<double>::infinity();
  for (auto it = lo; it != hi; ++it) {
    const std::size_t arc =
        base + static_cast<std::size_t>(it - arcs.begin());
    best = std::min(best, s.weights[arc]);
  }
  return best;
}

QueryResult<TropicalD> IncrementalEngine::distances(Vertex source) const {
  SEPSP_CHECK_MSG(state_->updated_arcs.empty(),
                  "staged updates pending — call apply() first");
  return state_->engine->distances(source);
}

const Augmentation& IncrementalEngine::augmentation() const {
  return state_->engine->augmentation();
}

}  // namespace sepsp
